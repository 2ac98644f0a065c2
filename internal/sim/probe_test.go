package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/fault"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// recordingProbe keeps every observed event for assertion.
type recordingProbe struct {
	events []ProbeEvent
	resets int
}

func (r *recordingProbe) Observe(ev ProbeEvent) { r.events = append(r.events, ev) }
func (r *recordingProbe) ResetProbe()           { r.events = nil; r.resets++ }

func (r *recordingProbe) count(k EventKind) int {
	n := 0
	for _, ev := range r.events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

func TestNilProbeByteIdentical(t *testing.T) {
	// The tentpole's acceptance bar: attaching a probe must not perturb
	// the simulation. Result is a comparable value (Phases is nil without
	// a collector), so == checks every statistic at full float precision.
	d := mems.MustDevice(mems.DefaultConfig())
	run := func(p Probe) Result {
		src := workload.DefaultRandom(1100, 512, d.Capacity(), 3000, 7)
		return Run(nil, d, sched.NewSPTF(), src, Options{Warmup: 200, Probe: p})
	}
	if plain, probed := run(nil), run(&recordingProbe{}); !reflect.DeepEqual(plain, probed) {
		t.Errorf("probed open run diverged:\n  plain:  %+v\n  probed: %+v", plain, probed)
	}

	closed := func(p Probe) Result {
		src := workload.DefaultRandom(900, 512, d.Capacity(), 2000, 11)
		return RunClosed(nil, d, src, Options{Warmup: 100, Probe: p})
	}
	if plain, probed := closed(nil), closed(&recordingProbe{}); !reflect.DeepEqual(plain, probed) {
		t.Errorf("probed closed run diverged:\n  plain:  %+v\n  probed: %+v", plain, probed)
	}

	stripe := func(p Probe) Result {
		spec := volFixtures(t, stripeVolCfg(2, 100, 100), 1.5)
		src := workload.NewFromSlice(mkReqs(make([]float64, 200)))
		return mustVolume(t, nil, spec, src, Options{Warmup: 20, Probe: p})
	}
	if plain, probed := stripe(nil), stripe(&recordingProbe{}); !reflect.DeepEqual(plain, probed) {
		t.Errorf("probed stripe run diverged:\n  plain:  %+v\n  probed: %+v", plain, probed)
	}

	// Under fault injection too: retries and requeues ride the same path.
	cfg := fault.DefaultInjectorConfig()
	cfg.TransientRate = 0.1
	cfg.Seed = 3
	faulty := func(p Probe) Result {
		inj, err := fault.NewInjector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := workload.DefaultRandom(1100, 512, d.Capacity(), 2000, 13)
		return Run(nil, d, sched.NewSPTF(), src, Options{Warmup: 100, Injector: inj, Probe: p})
	}
	if plain, probed := faulty(nil), faulty(&recordingProbe{}); !reflect.DeepEqual(plain, probed) {
		t.Errorf("probed faulty run diverged:\n  plain:  %+v\n  probed: %+v", plain, probed)
	}
}

func TestProbeEventSequence(t *testing.T) {
	// Well-separated arrivals on a fixed device: every request's
	// lifecycle is arrive → dispatch → service → complete, with no
	// interleaving between requests.
	d := &fixedDevice{svc: 2}
	rp := &recordingProbe{}
	src := workload.NewFromSlice(mkReqs([]float64{0, 100, 200}))
	res := Run(nil, d, sched.NewFCFS(), src, Options{Probe: rp})
	if res.Requests != 3 {
		t.Fatalf("requests = %d", res.Requests)
	}
	want := []EventKind{
		EventArrive, EventDispatch, EventService, EventComplete,
		EventArrive, EventDispatch, EventService, EventComplete,
		EventArrive, EventDispatch, EventService, EventComplete,
	}
	if len(rp.events) != len(want) {
		t.Fatalf("got %d events, want %d", len(rp.events), len(want))
	}
	for i, ev := range rp.events {
		if ev.Kind != want[i] {
			t.Errorf("event %d = %v, want %v", i, ev.Kind, want[i])
		}
	}
	// The service event carries the visit's breakdown; an undecomposed
	// device reports everything as unattributed service.
	svc := rp.events[2]
	if svc.Breakdown.ServiceMs != 2 || svc.Breakdown.PhaseSum() != 0 {
		t.Errorf("fixed-device breakdown = %+v", svc.Breakdown)
	}
	// Dispatch queue length counts the dispatched request itself.
	if q := rp.events[1].Queue; q != 1 {
		t.Errorf("dispatch queue = %d, want 1", q)
	}
}

func TestProbeCountsMatchResult(t *testing.T) {
	// Event counts must reconcile with the run's aggregate counters, retry
	// and requeue events included.
	d := mems.MustDevice(mems.DefaultConfig())
	cfg := fault.DefaultInjectorConfig()
	cfg.TransientRate = 0.25
	cfg.Seed = 41
	inj, err := fault.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rp := &recordingProbe{}
	src := workload.DefaultRandom(1000, 512, d.Capacity(), 2000, 19)
	res := Run(nil, d, sched.NewSPTF(), src, Options{Warmup: 100, Injector: inj, Probe: rp})

	if got := rp.count(EventRetry); got != res.Retries {
		t.Errorf("retry events = %d, want Result.Retries = %d", got, res.Retries)
	}
	if got := rp.count(EventRequeue); got != res.Requeues {
		t.Errorf("requeue events = %d, want Result.Requeues = %d", got, res.Requeues)
	}
	arrives, completes := rp.count(EventArrive), rp.count(EventComplete)
	if arrives != completes {
		t.Errorf("arrive events = %d, complete events = %d", arrives, completes)
	}
	// Each requeue adds one extra dispatch and service visit.
	if d, s := rp.count(EventDispatch), rp.count(EventService); d != completes+res.Requeues || s != d {
		t.Errorf("dispatch=%d service=%d, want %d", d, s, completes+res.Requeues)
	}
	measured := 0
	for _, ev := range rp.events {
		if ev.Kind == EventComplete && ev.Measured {
			measured++
		}
	}
	if measured != res.Requests {
		t.Errorf("measured completes = %d, want Result.Requests = %d", measured, res.Requests)
	}
	if res.Retries == 0 || res.Requeues == 0 {
		t.Fatalf("weak fixture: retries=%d requeues=%d", res.Retries, res.Requeues)
	}
}

func TestPhaseReconciliation(t *testing.T) {
	// Acceptance criterion: per-phase sums reconcile with the exact
	// service time within 1e-9 ms, for both device models, per request.
	for _, tc := range []struct {
		name string
		dev  core.Device
		rate float64
	}{
		{"mems", mems.MustDevice(mems.DefaultConfig()), 1000},
		{"disk", disk.MustDevice(disk.Atlas10K()), 55},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pc := NewPhaseCollector()
			src := workload.DefaultRandom(tc.rate, 512, tc.dev.Capacity(), 2000, 23)
			res := Run(nil, tc.dev, sched.NewSPTF(), src, Options{Warmup: 100, Probe: pc})
			ps := res.Phases
			if ps == nil {
				t.Fatal("Result.Phases nil with an attached collector")
			}
			if ps.Requests != res.Requests {
				t.Fatalf("collector saw %d requests, run measured %d", ps.Requests, res.Requests)
			}
			if r := math.Max(math.Abs(ps.Unattributed.Min()), math.Abs(ps.Unattributed.Max())); r > 1e-9 {
				t.Errorf("phase sums miss service time by up to %g ms", r)
			}
			// The collector's service distribution matches the run's: same
			// count, and means apart only by float residue (the run measures
			// Finish−Start where the collector sums per-visit service).
			if math.Abs(ps.Service.Mean()-res.Service.Mean()) > 1e-9 || ps.Service.N() != res.Service.N() {
				t.Errorf("service mean %g (n=%d) != run's %g (n=%d)",
					ps.Service.Mean(), ps.Service.N(), res.Service.Mean(), res.Service.N())
			}
			// Every phase must be represented on these workloads except
			// recovery (no injector) — and turnaround only on the disk
			// (head switches; the MEMS model's X/Y overlap hides none).
			if ps.Seek.Max() == 0 || ps.Settle.Max() == 0 || ps.Transfer.Max() == 0 || ps.Overhead.Max() == 0 {
				t.Errorf("empty phase: seek=%g settle=%g transfer=%g overhead=%g",
					ps.Seek.Max(), ps.Settle.Max(), ps.Transfer.Max(), ps.Overhead.Max())
			}
			if ps.Recovery.Max() != 0 {
				t.Errorf("recovery = %g without an injector", ps.Recovery.Max())
			}
		})
	}
}

func TestPhaseReconciliationUnderInjection(t *testing.T) {
	// Retry penalties and ECC surcharges land in the recovery phase and
	// keep the per-request reconciliation exact.
	d := mems.MustDevice(mems.DefaultConfig())
	cfg := fault.DefaultInjectorConfig()
	cfg.TransientRate = 0.2
	cfg.Seed = 67
	inj, err := fault.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPhaseCollector()
	src := workload.DefaultRandom(1000, 512, d.Capacity(), 2000, 31)
	res := Run(nil, d, sched.NewSPTF(), src, Options{Warmup: 100, Injector: inj, Probe: pc})
	ps := res.Phases
	if res.Retries == 0 {
		t.Fatal("weak fixture: no retries")
	}
	if ps.Recovery.Max() == 0 {
		t.Error("no recovery time collected despite retries")
	}
	if r := math.Max(math.Abs(ps.Unattributed.Min()), math.Abs(ps.Unattributed.Max())); r > 1e-9 {
		t.Errorf("phase sums miss service time by up to %g ms under injection", r)
	}
}

func TestPhaseCollectorInClosedAndMultiRuns(t *testing.T) {
	d := mems.MustDevice(mems.DefaultConfig())
	pc := NewPhaseCollector()
	src := workload.DefaultRandom(900, 512, d.Capacity(), 1000, 37)
	res := RunClosed(nil, d, src, Options{Warmup: 50, Probe: pc})
	if res.Phases == nil || res.Phases.Requests != res.Requests {
		t.Fatalf("closed run phases = %+v, requests %d", res.Phases, res.Requests)
	}
	if r := math.Abs(res.Phases.Unattributed.Max()); r > 1e-9 {
		t.Errorf("closed-run phase residue %g", r)
	}

	spec := memsStripe(t, 2, "FCFS")
	gen := workload.DefaultRandom(1500, 512, spec.Volume.Capacity(), 1000, 43)
	pc2 := NewPhaseCollector()
	mres := mustVolume(t, nil, spec, gen, Options{Warmup: 50, Probe: pc2})
	if mres.Phases == nil || mres.Phases.Requests != mres.Requests {
		t.Fatalf("stripe run phases = %+v, requests %d", mres.Phases, mres.Requests)
	}
	if r := math.Max(math.Abs(mres.Phases.Unattributed.Min()), math.Abs(mres.Phases.Unattributed.Max())); r > 1e-9 {
		t.Errorf("stripe-run phase residue %g", r)
	}
}

func TestProbeResetBetweenRuns(t *testing.T) {
	// Reusing one Options value across runs must start each run's
	// collector fresh, like the device and injector.
	d := &fixedDevice{svc: 1}
	pc := NewPhaseCollector()
	opts := Options{Probe: pc}
	src1 := workload.NewFromSlice(mkReqs(make([]float64, 10)))
	Run(nil, d, sched.NewFCFS(), src1, opts)
	src2 := workload.NewFromSlice(mkReqs(make([]float64, 4)))
	res := Run(nil, d, sched.NewFCFS(), src2, opts)
	if res.Phases.Requests != 4 {
		t.Errorf("second run collected %d requests, want 4 (stale state)", res.Phases.Requests)
	}
}

func TestWithRunLabelsEvents(t *testing.T) {
	rp := &recordingProbe{}
	p := WithRun(rp, "job-1")
	p.Observe(ProbeEvent{Kind: EventArrive, Req: &core.Request{}})
	if len(rp.events) != 1 || rp.events[0].Run != "job-1" {
		t.Fatalf("events = %+v", rp.events)
	}
	if WithRun(nil, "x") != nil {
		t.Error("WithRun(nil) should be nil")
	}
}

func TestMultiProbeFanOut(t *testing.T) {
	a, b := &recordingProbe{}, &recordingProbe{}
	m := MultiProbe{a, nil, b}
	m.Observe(ProbeEvent{Kind: EventComplete, Req: &core.Request{}})
	if len(a.events) != 1 || len(b.events) != 1 {
		t.Errorf("fan-out reached a=%d b=%d", len(a.events), len(b.events))
	}
}

// TestResolveProbeTree covers the engine's one walk over Options.Probe:
// what it resets, which collector surfaces as Result.Phases, and that
// the shared Context.Probe stays outside the walk. Each row is
// resolved by newEngine and then driven through a two-member stripe
// volume (six requests, all measured).
func TestResolveProbeTree(t *testing.T) {
	// seeded returns a collector holding one stale observation, so a
	// reset shows as Requests dropping to zero.
	seeded := func() *PhaseCollector {
		pc := NewPhaseCollector()
		pc.Observe(ProbeEvent{Kind: EventComplete, Measured: true, Req: &core.Request{}})
		return pc
	}
	nested, nestedPC := &recordingProbe{}, seeded()
	wrapped := seeded()
	first, second := seeded(), seeded()
	shared := seeded()
	cases := []struct {
		name   string
		ctx    *Context
		probe  Probe             // Options.Probe
		phases *PhaseCollector   // must surface as Result.Phases
		fresh  []*PhaseCollector // must be reset by the walk
		then   func(t *testing.T, e *engine, res Result)
	}{
		{
			name:   "nested MultiProbe with nil entries",
			probe:  MultiProbe{nil, MultiProbe{nested, nil, MultiProbe{nestedPC}}, nil},
			phases: nestedPC,
			fresh:  []*PhaseCollector{nestedPC},
			then: func(t *testing.T, _ *engine, _ Result) {
				if nested.resets != 2 { // once by the walk, once by the run
					t.Errorf("nested resetter reset %d times, want 2", nested.resets)
				}
			},
		},
		{
			name:   "WithRun-wrapped collector",
			probe:  WithRun(wrapped, "j"),
			phases: wrapped,
			fresh:  []*PhaseCollector{wrapped},
		},
		{
			name:   "two collectors",
			probe:  MultiProbe{first, WithRun(second, "j")},
			phases: first,
			fresh:  []*PhaseCollector{first, second},
			then: func(t *testing.T, _ *engine, _ Result) {
				if second.Stats().Requests != 6 {
					t.Errorf("second collector saw %d requests, want 6", second.Stats().Requests)
				}
			},
		},
		{
			name: "collector as the shared Context.Probe",
			ctx:  &Context{Probe: shared},
			then: func(t *testing.T, _ *engine, _ Result) {
				if n := shared.Stats().Requests; n != 1+6 {
					t.Errorf("shared collector holds %d requests, want 7 (never reset)", n)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := Options{Probe: c.probe}
			e := newEngine(c.ctx, opts)
			if e.phases != c.phases {
				t.Errorf("resolved collector %p, want %p", e.phases, c.phases)
			}
			for _, pc := range c.fresh {
				if n := pc.Stats().Requests; n != 0 {
					t.Errorf("collector kept %d stale requests through the walk", n)
				}
			}
			spec := volFixtures(t, stripeVolCfg(2, 100, 100), 1)
			res := mustVolume(t, c.ctx, spec, workload.NewFromSlice(mkReqs(make([]float64, 6))), opts)
			if c.phases == nil && res.Phases != nil {
				t.Error("Result.Phases set without a collector in Options.Probe")
			}
			if c.phases != nil && (res.Phases == c.phases.Stats() || !reflect.DeepEqual(*res.Phases, *c.phases.Stats())) {
				t.Error("Result.Phases is not a copy of the first collector's stats")
			}
			if got := res.Members[0].Phases != nil; got != (c.phases != nil) {
				t.Errorf("per-member phases allocated = %v, want %v", got, c.phases != nil)
			}
			if c.then != nil {
				c.then(t, e, res)
			}
		})
	}
}

func TestStripeVolumeProbeEvents(t *testing.T) {
	spec := volFixtures(t, stripeVolCfg(2, 100, 100), 1)
	rp := &recordingProbe{}
	reqs := mkReqs(make([]float64, 40))
	for i, r := range reqs {
		r.LBN = int64(i%2) * 100
	}
	res := mustVolume(t, nil, spec, workload.NewFromSlice(reqs), Options{Warmup: 10, Probe: rp})
	if rp.count(EventArrive) != 40 || rp.count(EventDispatch) != 40 ||
		rp.count(EventService) != 40 || rp.count(EventComplete) != 40 {
		t.Errorf("event counts: arrive=%d dispatch=%d service=%d complete=%d, want 40 each",
			rp.count(EventArrive), rp.count(EventDispatch), rp.count(EventService), rp.count(EventComplete))
	}
	seen := map[int]bool{}
	for _, ev := range rp.events {
		seen[ev.Dev] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("events covered devices %v, want both", seen)
	}
	measured := 0
	for _, ev := range rp.events {
		if ev.Kind == EventComplete && ev.Measured {
			measured++
		}
	}
	if measured != res.Requests {
		t.Errorf("measured completes = %d, want %d", measured, res.Requests)
	}
}

func TestJSONLProbeOutput(t *testing.T) {
	d := mems.MustDevice(mems.DefaultConfig())
	var buf bytes.Buffer
	jp := NewJSONLProbe(&buf)
	src := workload.DefaultRandom(800, 512, d.Capacity(), 50, 3)
	res := Run(nil, d, sched.NewFCFS(), src, Options{Warmup: 5, Probe: WithRun(jp, "unit")})
	if err := jp.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 4*50 {
		t.Fatalf("got %d JSONL lines, want %d", len(lines), 4*50)
	}
	kinds := map[string]int{}
	measured := 0
	for i, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal(ln, &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, ln)
		}
		ev := rec["event"].(string)
		kinds[ev]++
		if rec["run"] != "unit" {
			t.Fatalf("line %d run = %v", i, rec["run"])
		}
		switch ev {
		case "service":
			ph, ok := rec["phases"].(map[string]any)
			if !ok {
				t.Fatalf("service line %d lacks phases: %s", i, ln)
			}
			sum := ph["seek_ms"].(float64) + ph["settle_ms"].(float64) +
				ph["turnaround_ms"].(float64) + ph["transfer_ms"].(float64) +
				ph["overhead_ms"].(float64) + ph["recovery_ms"].(float64)
			if math.Abs(sum-ph["service_ms"].(float64)) > 1e-9 {
				t.Fatalf("service line %d phases sum %g != service %g", i, sum, ph["service_ms"])
			}
		case "complete":
			sum, ok := rec["summary"].(map[string]any)
			if !ok {
				t.Fatalf("complete line %d lacks summary: %s", i, ln)
			}
			if sum["measured"].(bool) {
				measured++
			}
		}
	}
	if kinds["arrive"] != 50 || kinds["dispatch"] != 50 || kinds["service"] != 50 || kinds["complete"] != 50 {
		t.Errorf("event kinds = %v", kinds)
	}
	if measured != res.Requests {
		t.Errorf("measured lines = %d, want %d", measured, res.Requests)
	}
}

// failWriter fails after n bytes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestJSONLProbeLatchesWriteError(t *testing.T) {
	jp := NewJSONLProbe(&failWriter{n: 64})
	for i := 0; i < 100; i++ {
		jp.Observe(ProbeEvent{Kind: EventArrive, Req: &core.Request{Op: core.Read, Blocks: 1}})
	}
	if err := jp.Flush(); err == nil {
		t.Fatal("Flush swallowed the write error")
	}
}

func TestEventKindStrings(t *testing.T) {
	want := map[EventKind]string{
		EventArrive: "arrive", EventDispatch: "dispatch", EventService: "service",
		EventRetry: "retry", EventRequeue: "requeue", EventComplete: "complete",
		EventKind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestBreakdownAccumulateAndResidue(t *testing.T) {
	a := core.Breakdown{Seek: 1, Settle: 0.5, Transfer: 0.25, ServiceMs: 1.75, Segments: 1}
	b := core.Breakdown{Seek: 2, Turnaround: 0.1, Transfer: 0.5, Overhead: 0.2, Recovery: 3, ServiceMs: 5.8, Segments: 2}
	a.Accumulate(b)
	if a.Seek != 3 || a.Settle != 0.5 || a.Turnaround != 0.1 || a.Transfer != 0.75 ||
		a.Overhead != 0.2 || a.Recovery != 3 || a.ServiceMs != 7.55 || a.Segments != 3 {
		t.Errorf("accumulated = %+v", a)
	}
	if got := a.Positioning(); math.Abs(got-3.6) > 1e-12 {
		t.Errorf("positioning = %g", got)
	}
	if got := a.Unattributed(); math.Abs(got) > 1e-12 {
		t.Errorf("unattributed = %g", got)
	}
	if a.Total() != a.ServiceMs {
		t.Errorf("total = %g", a.Total())
	}
}

// progressAt returns a Context whose ProgressProbe appends each
// reported completion count and simulated time.
func progressAt(at *[]int, times *[]float64) *Context {
	return &Context{Probe: &ProgressProbe{Report: func(n int, ms float64) {
		*at = append(*at, n)
		*times = append(*times, ms)
	}}}
}

func TestContextProgress(t *testing.T) {
	d := &fixedDevice{svc: 1}
	src := workload.NewFromSlice(mkReqs(make([]float64, 2500)))
	var at []int
	var times []float64
	Run(progressAt(&at, &times), d, sched.NewFCFS(), src, Options{})
	if len(at) != 2 || at[0] != 1000 || at[1] != 2000 {
		t.Errorf("progress fired at %v, want [1000 2000]", at)
	}
	// A nil context is valid everywhere.
	src = workload.NewFromSlice(mkReqs(make([]float64, 3)))
	Run(nil, d, sched.NewFCFS(), src, Options{})
}

func TestContextProgressDefaultInterval(t *testing.T) {
	// The probe reports every 1000 completions, warmup included, under
	// the closed loop too.
	d := &fixedDevice{svc: 0.001}
	src := workload.NewFromSlice(mkReqs(make([]float64, 2500)))
	var at []int
	var times []float64
	RunClosed(progressAt(&at, &times), d, src, Options{Warmup: 1500})
	if len(at) != 2 {
		t.Errorf("progress fired %d times, want 2", len(at))
	}
}

func TestContextProgressExactBoundary(t *testing.T) {
	// A run whose completion count is an exact multiple of the interval
	// reports its final completion too.
	d := &fixedDevice{svc: 1}
	src := workload.NewFromSlice(mkReqs(make([]float64, 2000)))
	var at []int
	var times []float64
	Run(progressAt(&at, &times), d, sched.NewFCFS(), src, Options{})
	if len(at) != 2 || at[0] != 1000 || at[1] != 2000 {
		t.Errorf("progress fired at %v, want [1000 2000]", at)
	}
}

func TestContextProgressReportsSimTime(t *testing.T) {
	// The reported time is simulated time, not wall time.
	d := &fixedDevice{svc: 2}
	src := workload.NewFromSlice(mkReqs(make([]float64, 3000)))
	var at []int
	var times []float64
	Run(progressAt(&at, &times), d, sched.NewFCFS(), src, Options{})
	want := []float64{2000, 4000, 6000}
	if len(times) != len(want) {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("progress time %d = %g, want %g", i, times[i], want[i])
		}
	}
}

func TestStripeVolumeProgress(t *testing.T) {
	// A stripe volume's completions reach a ProgressProbe on
	// Context.Probe as the single-device loops' do.
	spec := volFixtures(t, stripeVolCfg(2, 100, 100), 1)
	src := workload.NewFromSlice(mkReqs(make([]float64, 2500)))
	var at []int
	var times []float64
	mustVolume(t, progressAt(&at, &times), spec, src, Options{})
	if len(at) != 2 || at[0] != 1000 || at[1] != 2000 {
		t.Errorf("progress fired at %v, want [1000 2000]", at)
	}
}

// TestResultPhasesSurviveCollectorReuse runs 10 requests, then 3, with
// one PhaseCollector: the first run's Result.Phases is its own copy, so
// the second run, which resets the collector, leaves it at 10.
func TestResultPhasesSurviveCollectorReuse(t *testing.T) {
	pc := NewPhaseCollector()
	run := func(n int) Result {
		src := workload.NewFromSlice(mkReqs(make([]float64, n)))
		return Run(nil, &fixedDevice{svc: 1}, sched.NewFCFS(), src, Options{Probe: pc})
	}
	first := run(10)
	second := run(3)
	if first.Phases.Requests != 10 || second.Phases.Requests != 3 {
		t.Errorf("phases of the 10- and 3-request runs hold %d and %d requests",
			first.Phases.Requests, second.Phases.Requests)
	}
}
