package sim

import (
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
// (0.0042 per request). The volume run measures 357 (0.0179): RunVolume
// keeps nine phase distributions for each of its five members as well
// as the volume's nine, and each holds about 10k observations in four
// blocks, while the intent and member-op pools grow to the run's peak
// concurrency in blocks (of 8 to 64 intents, which carry their plan
// storage, and of 64 member ops).
// Both are per-run costs that do not grow with n, so the volume budget
// is the measured value plus a fifth.
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
		name   string
		budget float64
		run    func() Result
	}{
		{"open", 0.01, func() Result { return Run(nil, open, sptf, random(open), Options{Probe: pc}) }},
		{"closed", 0.01, func() Result { return RunClosed(nil, closed, random(closed), Options{Probe: pc}) }},
		{"volume", 0.0214, func() Result {
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
	}
}
