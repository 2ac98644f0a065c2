package sim

import (
	"math"
	"testing"

	"memsim/internal/core"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// mustMulti runs RunMulti and fails the test on a configuration error.
func mustMulti(t *testing.T, ctx *Context, devs []core.Device, scheds []core.Scheduler,
	route Router, src workload.Source, opts Options) Result {
	t.Helper()
	res, err := RunMulti(ctx, devs, scheds, route, src, opts)
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	return res
}

func multiFixtures(n int, svc float64) ([]core.Device, []core.Scheduler) {
	devs := make([]core.Device, n)
	scheds := make([]core.Scheduler, n)
	for i := range devs {
		devs[i] = &fixedDevice{svc: svc}
		scheds[i] = sched.NewFCFS()
	}
	return devs, scheds
}

func TestRunMultiParallelism(t *testing.T) {
	// Four simultaneous arrivals onto four devices: all finish at svc.
	devs, scheds := multiFixtures(4, 2)
	reqs := mkReqs([]float64{0, 0, 0, 0})
	for i, r := range reqs {
		r.LBN = int64(i) * 100 // route one to each device
	}
	res := mustMulti(t, nil, devs, scheds, ConcatRouter(100), workload.NewFromSlice(reqs), Options{})
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

func TestRunMultiSerializesPerDevice(t *testing.T) {
	// Four simultaneous arrivals onto one device of four: they queue.
	devs, scheds := multiFixtures(4, 2)
	reqs := mkReqs([]float64{0, 0, 0, 0})
	res := mustMulti(t, nil, devs, scheds, ConcatRouter(100), workload.NewFromSlice(reqs), Options{})
	if res.Response.Max() != 8 {
		t.Errorf("max response = %g, want 8 (serialized)", res.Response.Max())
	}
}

func TestRunMultiMatchesSingleDeviceRun(t *testing.T) {
	// With one device, RunMulti must agree exactly with Run.
	d1 := mems.MustDevice(mems.DefaultConfig())
	src1 := workload.DefaultRandom(900, 512, d1.Capacity(), 3000, 9)
	single := Run(nil, d1, sched.NewFCFS(), src1, Options{Warmup: 100})

	d2 := mems.MustDevice(mems.DefaultConfig())
	src2 := workload.DefaultRandom(900, 512, d2.Capacity(), 3000, 9)
	multi := mustMulti(t, nil, []core.Device{d2}, []core.Scheduler{sched.NewFCFS()},
		ConcatRouter(d2.Capacity()), src2, Options{Warmup: 100})

	if math.Abs(single.Response.Mean()-multi.Response.Mean()) > 1e-9 {
		t.Errorf("single %.6f vs multi %.6f", single.Response.Mean(), multi.Response.Mean())
	}
	if single.Requests != multi.Requests {
		t.Errorf("request counts differ: %d vs %d", single.Requests, multi.Requests)
	}
}

func TestRunMultiScalesThroughput(t *testing.T) {
	// A rate that saturates one MEMS device is comfortable for four.
	mk := func(n int) ([]core.Device, []core.Scheduler, int64) {
		devs := make([]core.Device, n)
		scheds := make([]core.Scheduler, n)
		for i := range devs {
			devs[i] = mems.MustDevice(mems.DefaultConfig())
			scheds[i] = sched.NewSPTF()
		}
		return devs, scheds, devs[0].Capacity()
	}
	devs1, scheds1, cap1 := mk(1)
	src := workload.DefaultRandom(2000, 512, cap1, 6000, 4)
	one := mustMulti(t, nil, devs1, scheds1, ConcatRouter(cap1), src, Options{Warmup: 500})

	devs4, scheds4, cap4 := mk(4)
	src4 := workload.DefaultRandom(2000, 512, 4*cap4, 6000, 4)
	four := mustMulti(t, nil, devs4, scheds4, ConcatRouter(cap4), src4, Options{Warmup: 500})

	if four.Response.Mean()*3 > one.Response.Mean() {
		t.Errorf("4-device volume %.2f ms should be far below saturated single %.2f ms",
			four.Response.Mean(), one.Response.Mean())
	}
}

func TestRunMultiErrors(t *testing.T) {
	devs, scheds := multiFixtures(2, 1)
	src := func() workload.Source { return workload.NewFromSlice(mkReqs([]float64{0})) }
	cases := []struct {
		name string
		run  func() (Result, error)
	}{
		{"no devices", func() (Result, error) {
			return RunMulti(nil, nil, nil, ConcatRouter(100), src(), Options{})
		}},
		{"count mismatch", func() (Result, error) {
			return RunMulti(nil, devs, scheds[:1], ConcatRouter(100), src(), Options{})
		}},
		{"nil router", func() (Result, error) {
			return RunMulti(nil, devs, scheds, nil, src(), Options{})
		}},
		{"nil source", func() (Result, error) {
			return RunMulti(nil, devs, scheds, ConcatRouter(100), nil, Options{})
		}},
		{"router out of range", func() (Result, error) {
			bad := func(*core.Request) (int, *core.Request) { return 5, &core.Request{Blocks: 1} }
			return RunMulti(nil, devs, scheds, bad, src(), Options{})
		}},
	}
	for _, tc := range cases {
		if _, err := tc.run(); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestRunMultiMemberAttribution(t *testing.T) {
	// Three requests to device 0, one to device 1: Members must split
	// the per-device shares while the aggregate covers both.
	devs, scheds := multiFixtures(2, 2)
	reqs := mkReqs([]float64{0, 1, 2, 3})
	reqs[3].LBN = 100 // route to device 1
	res := mustMulti(t, nil, devs, scheds, ConcatRouter(100), workload.NewFromSlice(reqs), Options{})
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
	res2 := mustMulti(t, nil, devs, scheds, ConcatRouter(100), workload.NewFromSlice(reqs2),
		Options{Probe: pc})
	if res2.Members[0].Phases == nil || res2.Members[1].Phases == nil {
		t.Fatal("member phases missing with a PhaseCollector")
	}
	if res2.Members[0].Phases.Requests != 3 || res2.Members[1].Phases.Requests != 1 {
		t.Errorf("member phase requests = %d,%d, want 3,1",
			res2.Members[0].Phases.Requests, res2.Members[1].Phases.Requests)
	}
}

func TestConcatRouter(t *testing.T) {
	r := ConcatRouter(1000)
	dev, nr := r(&core.Request{LBN: 2500, Blocks: 8})
	if dev != 2 || nr.LBN != 500 || nr.Blocks != 8 {
		t.Errorf("routed to dev=%d lbn=%d blocks=%d", dev, nr.LBN, nr.Blocks)
	}
	// Spill past the member boundary is clamped.
	_, nr = r(&core.Request{LBN: 995, Blocks: 10})
	if nr.Blocks != 5 {
		t.Errorf("clamped blocks = %d, want 5", nr.Blocks)
	}
}

func TestStripeRouter(t *testing.T) {
	r := StripeRouter(8, 4)
	// Strip 0 → dev 0 row 0; strip 1 → dev 1 row 0; strip 4 → dev 0 row 1.
	dev, nr := r(&core.Request{LBN: 0, Blocks: 8})
	if dev != 0 || nr.LBN != 0 {
		t.Errorf("strip 0: dev=%d lbn=%d", dev, nr.LBN)
	}
	dev, nr = r(&core.Request{LBN: 8, Blocks: 8})
	if dev != 1 || nr.LBN != 0 {
		t.Errorf("strip 1: dev=%d lbn=%d", dev, nr.LBN)
	}
	dev, nr = r(&core.Request{LBN: 32, Blocks: 8})
	if dev != 0 || nr.LBN != 8 {
		t.Errorf("strip 4: dev=%d lbn=%d", dev, nr.LBN)
	}
	// Requests crossing a strip boundary are clamped to the strip.
	_, nr = r(&core.Request{LBN: 6, Blocks: 8})
	if nr.Blocks != 2 {
		t.Errorf("clamped blocks = %d, want 2", nr.Blocks)
	}
}

func TestRunMultiIdlePeriods(t *testing.T) {
	// Arrivals separated by idle gaps: the event loop must ride through
	// empty queues, and elapsed time tracks the last completion.
	devs, scheds := multiFixtures(1, 2)
	src := workload.NewFromSlice(mkReqs([]float64{0, 100, 200}))
	res, err := RunMulti(nil, devs, scheds, ConcatRouter(1<<29), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
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

func TestRunMultiCompleteEvents(t *testing.T) {
	// A probe observing EventComplete hears every completion, warmup
	// included.
	devs, scheds := multiFixtures(2, 1)
	src := workload.NewFromSlice(mkReqs(make([]float64, 12)))
	seen := 0
	complete := probeFunc(func(ev ProbeEvent) {
		if ev.Kind == EventComplete {
			seen++
		}
	})
	if _, err := RunMulti(nil, devs, scheds, ConcatRouter(1<<29), src,
		Options{Warmup: 5, Probe: complete}); err != nil {
		t.Fatal(err)
	}
	if seen != 12 {
		t.Errorf("complete events fired %d times, want 12", seen)
	}
}
