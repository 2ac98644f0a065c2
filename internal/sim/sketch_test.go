// sketch_test.go covers the size-picked percentile backend as the engine
// sees it: every stats.Dist a run owns — the PhaseCollector's, the
// per-member phase aggregates and RunVolume's VolumeStats — keeps exact
// samples until it holds exactLimit observations and a bounded sketch
// after, with no switch for a caller to forget. Two properties matter:
// a Dist past the limit retains no per-observation memory, and its
// p95/p99 stay within the sketch's documented relative-error bound of
// the exact values. Runs below the limit are pinned byte-identical by
// the golden equivalence suite, not here.
package sim

import (
	"math"
	"testing"

	"memsim/internal/core"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/stats"
	"memsim/internal/workload"
)

// exactLimit mirrors stats.Dist's exact-backend limit (1<<19
// observations); TestSketchCollectorReset pins the two together.
const exactLimit = 1 << 19

// sketchBound is the asserted relative error at p50/p95/p99: the
// sketch's geometric bound (±1%) plus rank-discretization slack, the
// same bound DESIGN.md documents and internal/stats property-tests.
const sketchBound = 0.02

func relErrOK(t *testing.T, label string, got, want float64) {
	t.Helper()
	den := math.Abs(want)
	if den < 1e-9 {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: %g vs exact %g", label, got, want)
		}
		return
	}
	if e := math.Abs(got-want) / den; e > sketchBound {
		t.Errorf("%s: %g vs exact %g (rel err %.4f > %.4f)", label, got, want, e, sketchBound)
	}
}

// assertBounded asserts a Dist's backend matches its size: exact, every
// observation retained, below exactLimit; sketched, none retained, at
// or past it.
func assertBounded(t *testing.T, label string, d *stats.Dist) {
	t.Helper()
	if d.N() >= exactLimit {
		if !d.Sketched() || d.Retained() != 0 {
			t.Errorf("%s: n=%d sketched=%v retained=%d, want sketched with 0", label, d.N(), d.Sketched(), d.Retained())
		}
	} else if d.Sketched() || int64(d.Retained()) != d.N() {
		t.Errorf("%s: n=%d sketched=%v retained=%d, want exact", label, d.N(), d.Sketched(), d.Retained())
	}
}

// phaseDists lists a PhaseStats' distributions.
func phaseDists(ps *PhaseStats) []*stats.Dist {
	return []*stats.Dist{&ps.Seek, &ps.Settle, &ps.Turnaround, &ps.Transfer, &ps.Overhead,
		&ps.Recovery, &ps.Positioning, &ps.Service, &ps.Unattributed}
}

// serviceTwin keeps an exact copy of every measured completion's
// service time, the reference the sketched percentiles are held to.
type serviceTwin struct {
	s stats.Sample
	w stats.Welford
}

func (c *serviceTwin) Observe(ev ProbeEvent) {
	if ev.Kind == EventComplete && ev.Measured {
		c.s.Add(ev.Breakdown.ServiceMs)
		c.w.Add(ev.Breakdown.ServiceMs)
	}
}

// TestSketchOpenRun runs an open MEMS run past exactLimit measured
// completions: every phase distribution ends sketched, the moments are
// those of an exact twin, and the percentiles stay within the bound of
// the twin's exact ones.
func TestSketchOpenRun(t *testing.T) {
	if raceBuild {
		t.Skip("a run past the exact limit is slow under -race")
	}
	const warmup = 1000
	d := mems.MustDevice(mems.DefaultConfig())
	src := workload.DefaultRandom(1100, 512, d.Capacity(), exactLimit+warmup+5000, 1)
	twin := &serviceTwin{}
	res := Run(nil, d, sched.NewSPTF(), src,
		Options{Warmup: warmup, Probe: MultiProbe{NewPhaseCollector(), twin}})
	ps := res.Phases
	if ps == nil || ps.Requests <= exactLimit {
		t.Fatalf("run too small to cross the limit: %+v", ps)
	}
	for _, dist := range phaseDists(ps) {
		if !dist.Sketched() || dist.Retained() != 0 {
			t.Fatalf("a phase distribution of %d observations is not sketched", dist.N())
		}
	}
	if sv := &ps.Service; sv.N() != twin.w.N() || sv.Mean() != twin.w.Mean() || sv.StdDev() != twin.w.StdDev() ||
		sv.Min() != twin.w.Min() || sv.Max() != twin.w.Max() {
		t.Errorf("service moments diverged from the exact twin: n=%d mean=%g sd=%g vs %+v",
			sv.N(), sv.Mean(), sv.StdDev(), twin.w)
	}
	for _, p := range []float64{50, 95, 99} {
		relErrOK(t, "service percentile", ps.Service.Percentile(p), twin.s.Percentile(p))
	}
}

// TestSketchCollectorReset pins the limit at both ends of a collector's
// life: fed exactLimit−1 completions it is still exact, the next one
// migrates every distribution, and the engine's ResetProbe at the next
// run starts it exact again rather than carrying the sketch over.
func TestSketchCollectorReset(t *testing.T) {
	pc := NewPhaseCollector()
	ev := ProbeEvent{Kind: EventComplete, Measured: true, Req: &core.Request{},
		Breakdown: core.Breakdown{Seek: 0.3, Settle: 0.2, ServiceMs: 0.6}}
	for i := 0; i < exactLimit-1; i++ {
		pc.Observe(ev)
	}
	if s := &pc.Stats().Service; s.Sketched() || s.Retained() != exactLimit-1 {
		t.Fatalf("below the limit: sketched=%v retained=%d", s.Sketched(), s.Retained())
	}
	pc.Observe(ev)
	for _, dist := range phaseDists(pc.Stats()) {
		if !dist.Sketched() || dist.Retained() != 0 {
			t.Fatal("the exactLimit-th completion did not migrate every distribution")
		}
	}

	d := mems.MustDevice(mems.DefaultConfig())
	src := workload.DefaultRandom(1100, 512, d.Capacity(), 500, 1)
	Run(nil, d, sched.NewSPTF(), src, Options{Probe: pc})
	if n := pc.Stats().Requests; n != 500 {
		t.Fatalf("second run folded %d requests, want 500", n)
	}
	for _, dist := range phaseDists(pc.Stats()) {
		assertBounded(t, "after reset", dist)
	}
}

// TestSketchVolumeRun drives a mirrored volume past exactLimit writes,
// so the run-level phases, both active members' phases (a mirror write
// visits each) and the volume's healthy and foreground distributions
// all cross the limit, and checks every Dist the run owns against its
// size. It holds about 30 distributions of up to 4 MiB each at the
// crossing.
func TestSketchVolumeRun(t *testing.T) {
	if raceBuild {
		t.Skip("a run past the exact limit is slow under -race")
	}
	spec := volFixtures(t, mirrorVolCfg(), 0.1)
	src := workload.NewRandom(workload.RandomConfig{Rate: 1000, MeanBytes: 512, MaxBytes: 512,
		SectorSize: 512, Capacity: spec.Volume.Capacity(), Count: exactLimit + 100, Seed: 1})
	res, err := RunVolume(nil, spec, src, Options{Probe: NewPhaseCollector()})
	if err != nil {
		t.Fatal(err)
	}
	vs := res.Volume
	if vs == nil || res.Phases == nil {
		t.Fatal("no volume or phase stats")
	}
	crossed := []*stats.Dist{&res.Phases.Service, &vs.Healthy, &vs.ClassResponse[core.ClassForeground]}
	for _, dist := range phaseDists(res.Phases) {
		assertBounded(t, "run phases", dist)
	}
	for i, m := range res.Members {
		for _, dist := range phaseDists(m.Phases) {
			assertBounded(t, "member phases", dist)
		}
		if i < mirrorVolCfg().Members {
			crossed = append(crossed, &m.Phases.Service)
		}
	}
	assertBounded(t, "healthy", &vs.Healthy)
	assertBounded(t, "degraded", &vs.Degraded)
	for i := range vs.ClassResponse {
		assertBounded(t, "class response", &vs.ClassResponse[i])
	}
	for _, dist := range crossed {
		if !dist.Sketched() {
			t.Errorf("a distribution of %d observations never crossed the limit", dist.N())
		}
	}
}

// TestSketchMillionO1Memory repeats the memory assertion in the closed
// regime: past the limit no phase distribution retains an observation,
// and the sketched percentiles stay well-formed.
func TestSketchMillionO1Memory(t *testing.T) {
	if raceBuild {
		t.Skip("a run past the exact limit is slow under -race")
	}
	const n = exactLimit + 2000
	d := mems.MustDevice(mems.DefaultConfig())
	res := RunClosed(nil, d, workload.DefaultRandom(1100, 512, d.Capacity(), n, 1),
		Options{Warmup: 1000, Probe: NewPhaseCollector()})
	if res.Phases == nil || res.Phases.Requests != n-1000 {
		t.Fatalf("closed run measured %+v, want %d requests", res.Phases, n-1000)
	}
	for _, dist := range phaseDists(res.Phases) {
		if dist.Retained() != 0 {
			t.Fatalf("a phase distribution retained %d observations at n=%d", dist.Retained(), n)
		}
	}
	if p95, p99 := res.Phases.Service.P95(), res.Phases.Service.P99(); p95 <= 0 || p99 < p95 {
		t.Fatalf("degenerate percentiles: p95=%g p99=%g", p95, p99)
	}
}
