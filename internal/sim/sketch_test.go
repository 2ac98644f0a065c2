// sketch_test.go covers Context.Sketch: the bounded-quantile-sketch
// backend for every percentile-bearing aggregate a run owns. Two
// properties matter: sketched runs retain no per-observation memory
// (the O(1) model million-request runs depend on), and their p95/p99
// stay within the sketch's documented relative-error bound of the
// exact run's values. The default path is pinned byte-identical by the
// golden equivalence suite, not here.
package sim

import (
	"math"
	"testing"

	"memsim/internal/fault"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/stats"
	"memsim/internal/workload"
)

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

// assertSketched asserts a Dist is in sketch mode and retains nothing.
func assertSketched(t *testing.T, label string, d *stats.Dist) {
	t.Helper()
	if !d.Sketched() {
		t.Errorf("%s: not sketched", label)
	}
	if n := d.Retained(); n != 0 {
		t.Errorf("%s: retained %d observations, want 0", label, n)
	}
}

// TestSketchOpenRun compares a sketched open-arrival run against its
// exact twin: identical Welford results, zero retained observations,
// percentiles within the documented bound.
func TestSketchOpenRun(t *testing.T) {
	run := func(sk bool) Result {
		d := mems.MustDevice(mems.DefaultConfig())
		src := workload.DefaultRandom(1100, 512, d.Capacity(), 4000, 1)
		return Run(&Context{Sketch: sk}, d, sched.NewSPTF(), src,
			Options{Warmup: 200, Probe: NewPhaseCollector()})
	}
	exact, sketched := run(false), run(true)

	// The Welford aggregates never go through the sketch: the runs must
	// agree exactly on everything but percentiles.
	if exact.Requests != sketched.Requests ||
		exact.Response.Mean() != sketched.Response.Mean() ||
		exact.Elapsed != sketched.Elapsed {
		t.Fatalf("sketch changed the simulation: %+v vs %+v", exact, sketched)
	}
	if exact.Phases == nil || sketched.Phases == nil {
		t.Fatal("phase collector missing")
	}
	if exact.Phases.Requests != sketched.Phases.Requests {
		t.Fatalf("phase request counts diverged")
	}
	// Exact mode retains every observation; sketch mode none.
	if n := exact.Phases.Service.Retained(); n != exact.Phases.Requests {
		t.Fatalf("exact mode retained %d of %d", n, exact.Phases.Requests)
	}
	for label, d := range map[string]*stats.Dist{
		"service":     &sketched.Phases.Service,
		"seek":        &sketched.Phases.Seek,
		"settle":      &sketched.Phases.Settle,
		"positioning": &sketched.Phases.Positioning,
		"recovery":    &sketched.Phases.Recovery,
	} {
		assertSketched(t, label, d)
	}
	for i := range sketched.Phases.ClassService {
		assertSketched(t, "class service", &sketched.Phases.ClassService[i])
	}
	for _, p := range []float64{50, 95, 99} {
		relErrOK(t, "service percentile",
			sketched.Phases.Service.Percentile(p), exact.Phases.Service.Percentile(p))
		relErrOK(t, "positioning percentile",
			sketched.Phases.Positioning.Percentile(p), exact.Phases.Positioning.Percentile(p))
	}
}

// TestSketchCollectorReset pins the mode's stickiness across runs: a
// collector flipped by one sketched run stays sketched after the
// engine's ResetProbe on the next run.
func TestSketchCollectorReset(t *testing.T) {
	pc := NewPhaseCollector()
	d := mems.MustDevice(mems.DefaultConfig())
	run := func(sk bool) {
		src := workload.DefaultRandom(1100, 512, d.Capacity(), 500, 1)
		Run(&Context{Sketch: sk}, d, sched.NewSPTF(), src, Options{Probe: pc})
	}
	run(true)
	run(true)
	if !pc.Stats().Service.Sketched() || pc.Stats().Service.Retained() != 0 {
		t.Fatal("sketch mode lost across ResetProbe")
	}
	if n := pc.Stats().Requests; n != 500 {
		t.Fatalf("second run folded %d requests, want 500", n)
	}
}

// TestSketchVolumeRun repeats the memory assertion in the volume
// regime: VolumeStats and per-member phase aggregates must both be
// bounded under Context.Sketch, including through a failure + rebuild.
func TestSketchVolumeRun(t *testing.T) {
	run := func(sk bool) Result {
		spec := volFixtures(t, parityVolCfg(), 1)
		arr := make([]float64, 400)
		lbns := make([]int64, len(arr))
		for i := range arr {
			arr[i] = float64(i) * 3
			lbns[i] = int64(i % 128)
		}
		res, err := RunVolume(&Context{Sketch: sk}, spec, workload.NewFromSlice(volReqs(arr, 0, lbns)),
			Options{Probe: NewPhaseCollector(),
				Injector: devEvents(t, fault.DeviceEvent{AtMs: 150, Dev: 1})})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	exact, sketched := run(false), run(true)
	if exact.Requests != sketched.Requests || exact.Elapsed != sketched.Elapsed {
		t.Fatalf("sketch changed the volume simulation")
	}
	vs := sketched.Volume
	if vs == nil {
		t.Fatal("no volume stats")
	}
	assertSketched(t, "healthy", &vs.Healthy)
	assertSketched(t, "degraded", &vs.Degraded)
	for i := range vs.ClassResponse {
		assertSketched(t, "class response", &vs.ClassResponse[i])
	}
	for i := range sketched.Members {
		if ph := sketched.Members[i].Phases; ph != nil {
			assertSketched(t, "member service", &ph.Service)
		}
	}
	relErrOK(t, "healthy p95", vs.Healthy.P95(), exact.Volume.Healthy.P95())
}

// TestSketchMillionO1Memory is the acceptance check in miniature run
// large: a high-volume open run under Context.Sketch retains zero
// observations while its exact twin would have retained every one, and
// the sketch's bucket footprint stays under the hard cap regardless of
// request count.
func TestSketchMillionO1Memory(t *testing.T) {
	n := 200000
	if testing.Short() {
		n = 20000
	}
	d := mems.MustDevice(mems.DefaultConfig())
	src := workload.DefaultRandom(1100, 512, d.Capacity(), n, 1)
	res := Run(&Context{Sketch: true}, d, sched.NewSPTF(), src,
		Options{Warmup: n / 10, Probe: NewPhaseCollector()})
	if res.Phases == nil || res.Phases.Requests < n/2 {
		t.Fatalf("run too small to prove anything: %+v", res.Phases)
	}
	if got := res.Phases.Service.Retained(); got != 0 {
		t.Fatalf("sketched run retained %d observations at n=%d", got, n)
	}
	if p95, p99 := res.Phases.Service.P95(), res.Phases.Service.P99(); p95 <= 0 || p99 < p95 {
		t.Fatalf("degenerate percentiles: p95=%g p99=%g", p95, p99)
	}
}
