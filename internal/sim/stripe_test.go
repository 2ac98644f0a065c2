package sim

import (
	"math"
	"testing"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// stripeVolCfg is an n-member stripe (array.VolStripe) of unit-sector
// strips, each member holding per sectors. With unit == per it
// concatenates its members: member i holds volume LBNs [i·per, (i+1)·per).
func stripeVolCfg(n int, unit, per int64) array.VolumeConfig {
	return array.VolumeConfig{Level: array.VolStripe, Members: n, StripeUnit: unit, PerMember: per}
}

// mustVolume runs RunVolume and fails the test on a configuration error.
func mustVolume(t *testing.T, ctx *Context, spec VolumeSpec, src workload.Source, opts Options) Result {
	t.Helper()
	res, err := RunVolume(ctx, spec, src, opts)
	if err != nil {
		t.Fatalf("RunVolume: %v", err)
	}
	return res
}

// memsStripe is an n-sled MEMS concatenation, one sled per member, each
// member queued by its own scheduler of the named policy.
func memsStripe(t *testing.T, n int, policy string) VolumeSpec {
	t.Helper()
	devs := make([]core.Device, n)
	scheds := make([]core.Scheduler, n)
	for i := range devs {
		devs[i] = mems.MustDevice(mems.DefaultConfig())
		s, err := sched.New(policy)
		if err != nil {
			t.Fatal(err)
		}
		scheds[i] = s
	}
	per := devs[0].Capacity()
	v, err := array.NewVolume(stripeVolCfg(n, per, per))
	if err != nil {
		t.Fatal(err)
	}
	return VolumeSpec{Volume: v, Devices: devs, Scheds: scheds}
}

func TestStripeVolumeParallelism(t *testing.T) {
	// Four simultaneous arrivals onto four members: all finish at svc.
	spec := volFixtures(t, stripeVolCfg(4, 100, 100), 2)
	reqs := mkReqs([]float64{0, 0, 0, 0})
	for i, r := range reqs {
		r.LBN = int64(i) * 100 // one on each member
	}
	res := mustVolume(t, nil, spec, workload.NewFromSlice(reqs), Options{})
	if res.Requests != 4 {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.Response.Mean() != 2 || res.Response.Max() != 2 {
		t.Errorf("responses = mean %g max %g, want all 2 (parallel)", res.Response.Mean(), res.Response.Max())
	}
	if res.Elapsed != 2 {
		t.Errorf("elapsed = %g, want 2", res.Elapsed)
	}
}

func TestStripeVolumeSerializesPerDevice(t *testing.T) {
	// Four simultaneous arrivals onto one member of four: they queue.
	spec := volFixtures(t, stripeVolCfg(4, 100, 100), 2)
	reqs := mkReqs([]float64{0, 0, 0, 0})
	res := mustVolume(t, nil, spec, workload.NewFromSlice(reqs), Options{})
	if res.Response.Max() != 8 {
		t.Errorf("max response = %g, want 8 (serialized)", res.Response.Max())
	}
}

func TestStripeVolumeScalesThroughput(t *testing.T) {
	// A rate that saturates one MEMS device is comfortable for four.
	one := memsStripe(t, 1, "SPTF")
	per := one.Devices[0].Capacity()
	oneRes := mustVolume(t, nil, one, workload.DefaultRandom(2000, 512, per, 6000, 4), Options{Warmup: 500})

	four := memsStripe(t, 4, "SPTF")
	fourRes := mustVolume(t, nil, four, workload.DefaultRandom(2000, 512, 4*per, 6000, 4), Options{Warmup: 500})

	if fourRes.Response.Mean()*3 > oneRes.Response.Mean() {
		t.Errorf("4-device volume %.2f ms should be far below saturated single %.2f ms",
			fourRes.Response.Mean(), oneRes.Response.Mean())
	}
}

func TestStripeVolumeMemberAttribution(t *testing.T) {
	// Three requests to member 0, one to member 1: Members must split
	// the per-device shares while the aggregate covers both.
	spec := volFixtures(t, stripeVolCfg(2, 100, 100), 2)
	reqs := mkReqs([]float64{0, 1, 2, 3})
	reqs[3].LBN = 100 // member 1
	res := mustVolume(t, nil, spec, workload.NewFromSlice(reqs), Options{})
	if len(res.Members) != 2 {
		t.Fatalf("members = %d, want 2", len(res.Members))
	}
	if res.Members[0].Requests != 3 || res.Members[1].Requests != 1 {
		t.Errorf("member requests = %d,%d, want 3,1",
			res.Members[0].Requests, res.Members[1].Requests)
	}
	if res.Members[0].Busy != 6 || res.Members[1].Busy != 2 {
		t.Errorf("member busy = %g,%g, want 6,2", res.Members[0].Busy, res.Members[1].Busy)
	}
	if got := res.Members[0].Busy + res.Members[1].Busy; got != res.Busy {
		t.Errorf("member busy sum %g != total %g", got, res.Busy)
	}
	if res.Members[0].Phases != nil {
		t.Error("member phases present without a PhaseCollector")
	}

	// With a PhaseCollector, per-member phases appear and their request
	// counts match the member split.
	pc := NewPhaseCollector()
	reqs2 := mkReqs([]float64{0, 1, 2, 3})
	reqs2[3].LBN = 100
	res2 := mustVolume(t, nil, spec, workload.NewFromSlice(reqs2), Options{Probe: pc})
	if res2.Members[0].Phases == nil || res2.Members[1].Phases == nil {
		t.Fatal("member phases missing with a PhaseCollector")
	}
	if res2.Members[0].Phases.Requests != 3 || res2.Members[1].Phases.Requests != 1 {
		t.Errorf("member phase requests = %d,%d, want 3,1",
			res2.Members[0].Phases.Requests, res2.Members[1].Phases.Requests)
	}
}

func TestStripeVolumeIdlePeriods(t *testing.T) {
	// Arrivals separated by idle gaps: the event loop must ride through
	// empty queues, and elapsed time tracks the last completion.
	spec := volFixtures(t, stripeVolCfg(1, 100, 100), 2)
	res := mustVolume(t, nil, spec, workload.NewFromSlice(mkReqs([]float64{0, 100, 200})), Options{})
	if res.Requests != 3 {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.Elapsed != 202 {
		t.Errorf("elapsed = %g, want 202", res.Elapsed)
	}
	if res.Response.Mean() != 2 {
		t.Errorf("response mean = %g, want 2 (no contention)", res.Response.Mean())
	}
}

func TestStripeVolumeCompleteEvents(t *testing.T) {
	// A probe observing EventComplete hears every completion, warmup
	// included.
	spec := volFixtures(t, stripeVolCfg(2, 100, 100), 1)
	seen := 0
	complete := probeFunc(func(ev ProbeEvent) {
		if ev.Kind == EventComplete {
			seen++
		}
	})
	mustVolume(t, nil, spec, workload.NewFromSlice(mkReqs(make([]float64, 12))),
		Options{Warmup: 5, Probe: complete})
	if seen != 12 {
		t.Errorf("complete events fired %d times, want 12", seen)
	}
}

func TestStripeVolumeErrors(t *testing.T) {
	spec := volFixtures(t, stripeVolCfg(2, 100, 100), 1)
	src := func() workload.Source { return workload.NewFromSlice(mkReqs([]float64{0})) }
	cases := []struct {
		name string
		spec VolumeSpec
		src  workload.Source
	}{
		{"no devices", VolumeSpec{Volume: spec.Volume}, src()},
		{"device count", VolumeSpec{Volume: spec.Volume, Devices: spec.Devices[:1], Scheds: spec.Scheds}, src()},
		{"scheduler count", VolumeSpec{Volume: spec.Volume, Devices: spec.Devices, Scheds: spec.Scheds[:1]}, src()},
		{"nil source", spec, nil},
	}
	for _, tc := range cases {
		if _, err := RunVolume(nil, tc.spec, tc.src, Options{}); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestStripeVolumeMatchesSingleDeviceRun(t *testing.T) {
	// Traffic confined to the first member of a two-sled concatenation
	// meets the same queue as Run on that sled alone, and the second
	// member stays idle.
	d := mems.MustDevice(mems.DefaultConfig())
	single := Run(nil, d, sched.NewFCFS(), workload.DefaultRandom(900, 512, d.Capacity(), 3000, 9),
		Options{Warmup: 100})

	spec := memsStripe(t, 2, "FCFS")
	per := spec.Devices[0].Capacity()
	vol := mustVolume(t, nil, spec, workload.DefaultRandom(900, 512, per, 3000, 9), Options{Warmup: 100})

	if math.Abs(single.Response.Mean()-vol.Response.Mean()) > 1e-9 {
		t.Errorf("single %.6f vs volume %.6f", single.Response.Mean(), vol.Response.Mean())
	}
	if single.Requests != vol.Requests {
		t.Errorf("request counts differ: %d vs %d", single.Requests, vol.Requests)
	}
	if vol.Members[1].Requests != 0 || vol.Members[1].Busy != 0 {
		t.Errorf("member 1 served %d requests (busy %g), want none", vol.Members[1].Requests, vol.Members[1].Busy)
	}
}
