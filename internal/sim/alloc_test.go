package sim

import (
	"runtime"
	"testing"

	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// TestAllocationFloor holds each regime near zero heap allocations per
// request. Requests come from slabs of 1024, and the engine hands each
// finished one back to its source for reuse; exact samples fill blocks
// of up to 8192 floats. So what is left is per slab, per block and per
// run. Each probed run carries a PhaseCollector, whose exact phase
// distributions are the largest sample load a run takes on.
//
// The open and closed runs measure 66 and 64 allocations for 20k
// requests (0.0033 per request). The volume run measures 312 (0.0156):
// RunVolume keeps nine phase distributions for each of its five members
// as well as the volume's nine, and each holds about 10k observations in
// four blocks, while the intent and member-op pools grow to the run's
// peak concurrency in blocks (of 8 to 64 intents, which carry their plan
// storage, and of 64 member ops). Both are per-run costs that do not
// grow with n, so the volume budget is the measured value plus a fifth.
//
// Bytes per request are budgeted the same way, the measured value plus
// a fifth, so a request that is no longer reused, or a field that grows
// core.Request, fails here. The open and closed runs measure 89.4 B per
// request, almost all of it the exact samples the run and its collector
// keep; the volume run measures 331.0 B, which adds its members' phase
// samples. A closed run with no probe keeps one request in play and no
// samples: over 200k requests it measures 9 allocations and 0.44 B per
// request, its first slab and its Result.
func TestAllocationFloor(t *testing.T) {
	if raceBuild {
		t.Skip("allocation budgets are checked in the normal build; this run is slow under -race")
	}
	const n, bare = 20000, 200000
	open, closed := mems.MustDevice(mems.DefaultConfig()), mems.MustDevice(mems.DefaultConfig())
	sptf := sched.NewSPTF()
	random := func(d *mems.Device, n int) workload.Source {
		return workload.DefaultRandom(1100, d.SectorSize(), d.Capacity(), n, 1)
	}
	spec, _ := volumeRebuildFixture(t, n, false)
	pc := NewPhaseCollector()
	for _, tc := range []struct {
		name        string
		n           int
		budget      float64
		bytesBudget float64
		run         func() Result
	}{
		{"open", n, 0.01, 107, func() Result { return Run(nil, open, sptf, random(open, n), Options{Probe: pc}) }},
		{"closed", n, 0.01, 107, func() Result { return RunClosed(nil, closed, random(closed, n), Options{Probe: pc}) }},
		{"volume", n, 0.0187, 397, func() Result {
			res, err := RunVolume(nil, spec, volumeRebuildSource(n), Options{Probe: pc})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"closed-bare", bare, 0.000055, 0.53, func() Result { return RunClosed(nil, closed, random(closed, bare), Options{}) }},
	} {
		var res Result
		allocs := testing.AllocsPerRun(2, func() { res = tc.run() })
		if res.Requests != tc.n {
			t.Fatalf("%s: measured %d requests, want %d", tc.name, res.Requests, tc.n)
		}
		if tc.n == n && pc.Stats().Service.N() != n {
			t.Fatalf("%s: %d phase samples, want %d", tc.name, pc.Stats().Service.N(), n)
		}
		if perReq := allocs / float64(tc.n); perReq > tc.budget {
			t.Errorf("%s: %.6f allocations per request (%.0f per run), budget %g", tc.name, perReq, allocs, tc.budget)
		} else {
			t.Logf("%s: %.6f allocations per request (%.0f per run)", tc.name, perReq, allocs)
		}
		if perReq := bytesPerRun(2, func() { tc.run() }) / float64(tc.n); perReq > tc.bytesBudget {
			t.Errorf("%s: %.2f B per request, budget %g", tc.name, perReq, tc.bytesBudget)
		} else {
			t.Logf("%s: %.2f B per request", tc.name, perReq)
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
