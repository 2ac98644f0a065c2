package sim

import (
	"runtime"
	"testing"

	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// TestAllocationFloor holds each regime near zero heap allocations per
// request. Requests come from slabs of 1024 and exact samples from
// blocks of up to 8192 floats, so what is left is per slab, per block
// and per run. Each run carries a PhaseCollector, whose exact phase
// distributions are the largest sample load a run takes on.
//
// The open and closed runs measure 83 allocations for 20k requests
// (0.0042 per request). The volume run measures 331 (0.0165): RunVolume
// keeps nine phase distributions for each of its five members as well
// as the volume's nine, and each holds about 10k observations in four
// blocks, while the intent and member-op pools grow to the run's peak
// concurrency in blocks (of 8 to 64 intents, which carry their plan
// storage, and of 64 member ops).
// Both are per-run costs that do not grow with n, so the volume budget
// is the measured value plus a fifth.
//
// Bytes per request are budgeted the same way, the measured value plus
// a fifth, so a field that grows core.Request fails here. The open and
// closed runs measure 165.5 B per request, the 80 B request and the
// exact samples the run and its collector keep; the volume run measures
// 407.2 B, which adds its members' phase samples.
func TestAllocationFloor(t *testing.T) {
	if raceBuild {
		t.Skip("allocation budgets are checked in the normal build; this run is slow under -race")
	}
	const n = 20000
	open, closed := mems.MustDevice(mems.DefaultConfig()), mems.MustDevice(mems.DefaultConfig())
	sptf := sched.NewSPTF()
	random := func(d *mems.Device) workload.Source {
		return workload.DefaultRandom(1100, d.SectorSize(), d.Capacity(), n, 1)
	}
	spec, _ := volumeRebuildFixture(t, n, false)
	pc := NewPhaseCollector()
	for _, tc := range []struct {
		name        string
		budget      float64
		bytesBudget float64
		run         func() Result
	}{
		{"open", 0.01, 199, func() Result { return Run(nil, open, sptf, random(open), Options{Probe: pc}) }},
		{"closed", 0.01, 199, func() Result { return RunClosed(nil, closed, random(closed), Options{Probe: pc}) }},
		{"volume", 0.0199, 489, func() Result {
			res, err := RunVolume(nil, spec, volumeRebuildSource(n), Options{Probe: pc})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
	} {
		var res Result
		allocs := testing.AllocsPerRun(2, func() { res = tc.run() })
		if res.Requests != n || pc.Stats().Service.N() != n {
			t.Fatalf("%s: measured %d requests, %d phase samples; want %d", tc.name, res.Requests, pc.Stats().Service.N(), n)
		}
		if perReq := allocs / n; perReq > tc.budget {
			t.Errorf("%s: %.4f allocations per request (%.0f per run), budget %g", tc.name, perReq, allocs, tc.budget)
		} else {
			t.Logf("%s: %.4f allocations per request (%.0f per run)", tc.name, perReq, allocs)
		}
		if perReq := bytesPerRun(2, func() { tc.run() }) / n; perReq > tc.bytesBudget {
			t.Errorf("%s: %.1f B per request, budget %g", tc.name, perReq, tc.bytesBudget)
		} else {
			t.Logf("%s: %.1f B per request", tc.name, perReq)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// one call of f allocates, over runs calls after a warm-up call, with
// GOMAXPROCS at 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
