package fault

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

func TestLifetimeModelValidate(t *testing.T) {
	good := LifetimeModel{MTTFMs: 1000, Slots: 2, HorizonMs: 5000, Seed: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*LifetimeModel)
	}{
		{"zero mttf", func(m *LifetimeModel) { m.MTTFMs = 0 }},
		{"negative mttf", func(m *LifetimeModel) { m.MTTFMs = -1 }},
		{"nan mttf", func(m *LifetimeModel) { m.MTTFMs = math.NaN() }},
		{"inf mttf", func(m *LifetimeModel) { m.MTTFMs = math.Inf(1) }},
		{"zero slots", func(m *LifetimeModel) { m.Slots = 0 }},
		{"zero horizon", func(m *LifetimeModel) { m.HorizonMs = 0 }},
		{"nan horizon", func(m *LifetimeModel) { m.HorizonMs = math.NaN() }},
	}
	for _, tc := range cases {
		m := good
		tc.mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestLifetimeScheduleDeterministicAndSorted(t *testing.T) {
	m := LifetimeModel{MTTFMs: 500, Slots: 3, HorizonMs: 20000, Seed: 7}
	a, b := m.Schedule(), m.Schedule()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same model drew different schedules")
	}
	if len(a) == 0 {
		t.Fatal("40 expected failures per slot drew an empty schedule")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].AtMs < a[j].AtMs }) {
		t.Error("schedule not sorted by firing time")
	}
	for _, ev := range a {
		if ev.AtMs <= 0 || ev.AtMs > m.HorizonMs {
			t.Errorf("event at %g ms outside (0, %g]", ev.AtMs, m.HorizonMs)
		}
		if ev.Dev < 0 || ev.Dev >= m.Slots {
			t.Errorf("event targets slot %d outside [0,%d)", ev.Dev, m.Slots)
		}
	}
	// A different seed must draw a different schedule.
	m2 := m
	m2.Seed = 8
	if reflect.DeepEqual(a, m2.Schedule()) {
		t.Error("different seeds drew identical schedules")
	}
}

func TestLifetimeSchedulePrefixStableAcrossSlots(t *testing.T) {
	// Slot k's draws must not change when more slots are added: each slot
	// has its own decorrelated sub-stream.
	narrow := LifetimeModel{MTTFMs: 800, Slots: 2, HorizonMs: 30000, Seed: 3}
	wide := narrow
	wide.Slots = 4
	only := func(evs []DeviceEvent, slot int) []float64 {
		var ts []float64
		for _, ev := range evs {
			if ev.Dev == slot {
				ts = append(ts, ev.AtMs)
			}
		}
		return ts
	}
	ne, we := narrow.Schedule(), wide.Schedule()
	for slot := 0; slot < narrow.Slots; slot++ {
		if !reflect.DeepEqual(only(ne, slot), only(we, slot)) {
			t.Errorf("slot %d draws changed when Slots grew", slot)
		}
	}
}

func TestLifetimeScheduleMeanRoughlyMTTF(t *testing.T) {
	// Long horizon, one slot: the empirical failure rate must be within
	// 10% of 1/MTTF (≈2000 draws keeps the tolerance loose but honest).
	m := LifetimeModel{MTTFMs: 100, Slots: 1, HorizonMs: 200000, Seed: 11}
	n := float64(len(m.Schedule()))
	want := m.HorizonMs / m.MTTFMs
	if n < want*0.9 || n > want*1.1 {
		t.Errorf("drew %g failures over %g expected", n, want)
	}
}

func TestInjectorMergesLifetimeWithFixedEvents(t *testing.T) {
	lt := &LifetimeModel{MTTFMs: 300, Slots: 2, HorizonMs: 3000, Seed: 5}
	inj, err := NewInjector(InjectorConfig{
		DeviceEvents: []DeviceEvent{{AtMs: 10, Dev: 0}},
		Lifetime:     lt,
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := inj.DeviceEvents()
	if len(evs) != 1+len(lt.Schedule()) {
		t.Fatalf("merged %d events, want fixed 1 + drawn %d", len(evs), len(lt.Schedule()))
	}
	if !sort.SliceIsSorted(evs, func(i, j int) bool { return evs[i].AtMs < evs[j].AtMs }) {
		t.Error("merged schedule not sorted")
	}
	// Reset must not re-draw or lose the merged schedule.
	inj.Reset()
	if len(inj.DeviceEvents()) != len(evs) {
		t.Error("Reset changed the device-event schedule")
	}

	bad := InjectorConfig{Lifetime: &LifetimeModel{MTTFMs: -1, Slots: 1, HorizonMs: 1}}
	if _, err := NewInjector(bad); err == nil {
		t.Error("invalid lifetime model accepted")
	}
}

func TestLifetimeSamplerDeterministic(t *testing.T) {
	a, b := NewLifetimeSampler(100, 9), NewLifetimeSampler(100, 9)
	for i := 0; i < 100; i++ {
		if a.Draw() != b.Draw() {
			t.Fatal("same seed diverged")
		}
	}
	// Seed restarts the stream a fresh sampler draws, mid-stream too.
	a.Seed(9)
	e := NewLifetimeSampler(100, 9)
	for i := 0; i < 100; i++ {
		if a.Draw() != e.Draw() {
			t.Fatal("reseeded sampler diverged from a fresh one")
		}
	}
	// FirstOf scales a single draw by the population.
	c, d := NewLifetimeSampler(100, 9), NewLifetimeSampler(100, 9)
	if got, want := c.FirstOf(4), d.Draw()/4; got != want {
		t.Errorf("FirstOf(4) = %g, want %g", got, want)
	}
}

func TestTimeToDataLoss(t *testing.T) {
	// An enormous window loses data in the first cycle; a zero window
	// never does (every trial censors).
	s := NewLifetimeSampler(1000, 1)
	if _, ok := TimeToDataLoss(s, 2, math.MaxFloat64/4, 1000); !ok {
		t.Error("infinite window should lose data immediately")
	}
	if _, ok := TimeToDataLoss(NewLifetimeSampler(1000, 1), 2, 0, 100); ok {
		t.Error("zero window should never lose data")
	}

	// Determinism: same seed, same parameters, same loss time.
	x, _ := TimeToDataLoss(NewLifetimeSampler(1000, 3), 2, 500, 1<<20)
	y, _ := TimeToDataLoss(NewLifetimeSampler(1000, 3), 2, 500, 1<<20)
	if x != y {
		t.Errorf("loss time not deterministic: %g vs %g", x, y)
	}

	// Statistical sanity: mirror MTTDL ≈ MTTF²/(m(m-1)·W) for W ≪ MTTF.
	// 400 trials keep the tolerance at ±25%.
	const mttf, window = 1e6, 1e3
	sum, trials := 0.0, 400
	for i := 0; i < trials; i++ {
		v, ok := TimeToDataLoss(NewLifetimeSampler(mttf, int64(100+i)), 2, window, 1<<24)
		if !ok {
			t.Fatalf("trial %d censored", i)
		}
		sum += v
	}
	got := sum / float64(trials)
	want := mttf * mttf / (2 * window)
	if got < want*0.75 || got > want*1.25 {
		t.Errorf("mirror MTTDL = %g, want ≈ %g", got, want)
	}
}

func TestTimeToDataLossPanicsOnBadInputs(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	s := NewLifetimeSampler(100, 1)
	expectPanic("one member", func() { TimeToDataLoss(s, 1, 10, 10) })
	expectPanic("negative window", func() { TimeToDataLoss(s, 2, -1, 10) })
	expectPanic("zero population", func() { s.FirstOf(0) })
}
