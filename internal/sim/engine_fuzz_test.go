package sim

import (
	"reflect"
	"testing"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// fuzzPolicies are the member queues FuzzEngine draws from: the
// cost-blind queue, the cost-model queue and the class-aware one.
var fuzzPolicies = []string{"FCFS", "SPTF", "Priority"}

// FuzzEngine runs a random small simulation under the invariant probe
// (Context.Check), drawing its requests from a recycling source that a
// recycleChecker watches: a regime (open, closed or volume) on constant-cost
// or MEMS G1 devices; for a volume, its level, members, spares and
// strip and up to two device failures; a transient error rate in
// [0, 0.1) with its retry and requeue budgets; and an FCFS, SPTF or
// Priority queue. It holds each run to two oracles:
//
//   - the same input, run twice, gives equal Results;
//   - on the open regime, a one-member volume whose strip is the whole
//     device equals Run on every Result field but Recovered, which
//     RunVolume never counts (retries land on member ops), and the
//     Members and Volume aggregates only RunVolume fills.
//
// The second relation is checked on FCFS queues, and on the others
// only when no request was requeued. Run ingests arrivals lazily, after
// a failed visit's requeue, while the volume queued each at its arrival
// time, so an SPTF or Priority queue, which appends a requeued request,
// holds it ahead of the requests that arrived during its visit under
// Run and behind them under the volume, and its pick among tied costs
// then differs. FCFS puts a requeued request back at its head in both.
func FuzzEngine(f *testing.F) {
	f.Add(uint8(0), false, uint8(0), uint8(0), uint8(0), uint8(3), uint8(0), uint16(0), uint16(0),
		uint8(0), uint8(4), uint8(0), uint8(120), int64(1), false)
	f.Add(uint8(0), true, uint8(0), uint8(0), uint8(0), uint8(3), uint8(0), uint16(0), uint16(0),
		uint8(50), uint8(1), uint8(1), uint8(80), int64(2), true)
	f.Add(uint8(1), true, uint8(0), uint8(0), uint8(0), uint8(3), uint8(0), uint16(0), uint16(0),
		uint8(80), uint8(3), uint8(0), uint8(80), int64(3), true)
	f.Add(uint8(2), false, uint8(1), uint8(1), uint8(1), uint8(2), uint8(1), uint16(40), uint16(0),
		uint8(30), uint8(2), uint8(2), uint8(150), int64(4), true)
	f.Add(uint8(2), true, uint8(2), uint8(0), uint8(1), uint8(4), uint8(2), uint16(60), uint16(0x0190),
		uint8(60), uint8(0), uint8(0), uint8(70), int64(5), false)
	f.Add(uint8(2), false, uint8(0), uint8(3), uint8(0), uint8(1), uint8(1), uint16(0x0110), uint16(0),
		uint8(0), uint8(4), uint8(1), uint8(200), int64(6), true)
	f.Fuzz(func(t *testing.T, regime uint8, memsDev bool, level, members, spares, strip, events uint8,
		kill1, kill2 uint16, transient, budgets, policy, load uint8, seed int64, probed bool) {
		const n = 150
		policyName := fuzzPolicies[int(policy)%len(fuzzPolicies)]
		newDev := func() core.Device {
			if memsDev {
				return mems.MustDevice(mems.DefaultConfig())
			}
			return &fixedDevice{svc: 0.5}
		}
		newSched := func() core.Scheduler {
			s, err := sched.New(policyName)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		// Volume geometry: a valid member count for the level, strips of
		// 32 to 1024 sectors, and 2 to 17 rows of them per member, so
		// the volume holds more than the largest request.
		cfg := array.VolumeConfig{Level: array.VolumeLevel(level % 3), Members: 1 + int(members%4),
			Spares: int(spares % 2), StripeUnit: 32 << (strip % 6)}
		cfg.PerMember = cfg.StripeUnit * (2 + int64(strip/8%16))
		switch {
		case cfg.Level == array.VolMirror && cfg.Members < 2:
			cfg.Members = 2
		case cfg.Level == array.VolParity && cfg.Members < 3:
			cfg.Members = 3
		}
		// A failure fires at kill%256 ms on member slot kill>>8.
		var kills []fault.DeviceEvent
		for _, k := range []uint16{kill1, kill2}[:events%3] {
			kills = append(kills, fault.DeviceEvent{AtMs: float64(k % 256), Dev: int(k>>8) % cfg.Members})
		}
		rate := 200 + 10*float64(load)
		// Each run draws from a recycling source under a recycleChecker,
		// which it reports on once the run drains.
		source := func(capacity int64, regime string) (*recycleChecker, *Context) {
			c := newRecycleChecker(workload.NewRandom(workload.RandomConfig{Rate: rate, ReadFraction: 0.67,
				MeanBytes: 4096, MaxBytes: 16 * 1024, SectorSize: 512, Capacity: capacity, Count: n, Seed: seed}), regime)
			t.Cleanup(func() { c.verify(t) })
			return c, &Context{Check: true, Probe: c}
		}
		opts := func(devEvents []fault.DeviceEvent) Options {
			o := Options{Warmup: 10}
			if probed {
				o.Probe = NewPhaseCollector()
			}
			if transient%100 > 0 || len(devEvents) > 0 {
				o.Injector = mustInjector(t, fault.InjectorConfig{
					TransientRate: float64(transient%100) / 1000, MaxRetries: int(budgets % 3),
					MaxRequeues: int(budgets / 3 % 3), FallbackPenaltyMs: 1, Seed: seed,
					DeviceEvents: devEvents})
			}
			return o
		}
		volume := func(cfg array.VolumeConfig, devEvents []fault.DeviceEvent) Result {
			v, err := array.NewVolume(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spec := VolumeSpec{Volume: v, RebuildChunk: int(cfg.StripeUnit), RebuildFrac: 0.5}
			for range cfg.Devices() {
				spec.Devices = append(spec.Devices, newDev())
				spec.Scheds = append(spec.Scheds, newSched())
			}
			src, ctx := source(cfg.Capacity(), "volume")
			res, err := RunVolume(ctx, spec, src, opts(devEvents))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		run := func() Result {
			switch regime % 3 {
			case 0:
				d := newDev()
				src, ctx := source(d.Capacity(), "open")
				return Run(ctx, d, newSched(), src, opts(nil))
			case 1:
				d := newDev()
				src, ctx := source(d.Capacity(), "closed")
				return RunClosed(ctx, d, src, opts(nil))
			default:
				return volume(cfg, kills)
			}
		}
		first := run()
		if second := run(); !reflect.DeepEqual(first, second) {
			t.Fatalf("two runs of one input differ:\n%+v\n%+v", first, second)
		}
		if regime%3 != 0 || policyName != "FCFS" && first.Requeues > 0 {
			return
		}
		capacity := newDev().Capacity()
		vol := volume(array.VolumeConfig{Level: array.VolStripe, Members: 1,
			StripeUnit: capacity, PerMember: capacity}, nil)
		if visits := vol.Members[0].Requests; visits != n+vol.Requeues {
			t.Errorf("one-member volume: %d member visits for %d requests and %d requeues", visits, n, vol.Requeues)
		}
		vol.Members, vol.Volume = nil, nil
		first.Recovered, vol.Recovered = 0, 0
		if !reflect.DeepEqual(first, vol) {
			t.Errorf("one-member whole-device volume differs from Run:\nRun       %+v\nRunVolume %+v", first, vol)
		}
	})
}
