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
// finished one back to its source for reuse; a phase distribution that
// takes at most eight distinct values counts them in a table inside the
// Dist, and the others fill exact sample blocks of up to 8192 floats.
// So what is left is per slab, per block and per run. Each probed run
// carries a PhaseCollector, whose phase distributions are the largest
// sample load a run takes on. On the MEMS model six of its nine take
// one to seven values; only seek, positioning and service keep a float
// per request.
//
// The open and closed runs measure 28 allocations for 20k requests
// (0.0014 per request). The volume run measures 162 (0.0081): RunVolume
// keeps nine phase distributions for each of its five members as well
// as the volume's nine, and the three continuous ones of each, with the
// volume's response distributions, hold up to 20k observations in up
// to five blocks, while the intent and member-op pools grow to the
// run's peak concurrency in blocks (of 8 to 64 intents, which carry
// their plan storage, and of 64 member ops). All of these are per-run
// costs that do not grow with n, so each budget is the measured value
// plus a fifth.
//
// Bytes per request are budgeted the same way, so a request that is no
// longer reused, a field that grows core.Request, or a few-valued phase
// that keeps a float per observation again fails here. The open and
// closed runs measure 32.9 B per request, almost all of it the blocks
// of the three continuous phase distributions; the volume run measures
// 136.5 B, which adds its members' and its response distributions. A
// closed run with no probe keeps one request in play and no samples:
// over 200k requests it measures 9 allocations and 0.44 B per request,
// its first slab and its Result.
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
		{"open", n, 0.00168, 39.5, func() Result { return Run(nil, open, sptf, random(open, n), Options{Probe: pc}) }},
		{"closed", n, 0.00168, 39.5, func() Result { return RunClosed(nil, closed, random(closed, n), Options{Probe: pc}) }},
		{"volume", n, 0.00972, 164, func() Result {
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
