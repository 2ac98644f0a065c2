package sim

import (
	"testing"

	"memsim/internal/sched"
	"memsim/internal/workload"
)

func TestContextProgressNilReceiver(t *testing.T) {
	// A nil *Context is valid at every entry point and, like a Context
	// with no OnProgress, fires nothing.
	d := &fixedDevice{svc: 0.001}
	src := workload.NewFromSlice(mkReqs(make([]float64, 1500)))
	if res := RunClosed(nil, d, src, Options{}); res.Requests != 1500 {
		t.Errorf("nil-context run measured %d requests, want 1500", res.Requests)
	}
	(&Context{}).progress(progressEvery, 0) // nil OnProgress is inert
}

func TestContextProgressExactBoundary(t *testing.T) {
	// A run whose completion count is an exact multiple of the interval
	// fires on the final completion too.
	d := &fixedDevice{svc: 1}
	var at []int
	ctx := &Context{OnProgress: func(n int, _ float64) { at = append(at, n) }}
	src := workload.NewFromSlice(mkReqs(make([]float64, 2000)))
	Run(ctx, d, sched.NewFCFS(), src, Options{})
	if len(at) != 2 || at[0] != 1000 || at[1] != 2000 {
		t.Errorf("progress fired at %v, want [1000 2000]", at)
	}
}

func TestContextProgressReportsSimTime(t *testing.T) {
	// The second callback argument is simulated time, not wall time.
	d := &fixedDevice{svc: 2}
	var times []float64
	ctx := &Context{OnProgress: func(_ int, ms float64) { times = append(times, ms) }}
	src := workload.NewFromSlice(mkReqs(make([]float64, 3000)))
	Run(ctx, d, sched.NewFCFS(), src, Options{})
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

func TestRunMultiProgress(t *testing.T) {
	// RunMulti reports completions through the same hook as the
	// single-device loops.
	devs, scheds := multiFixtures(2, 1)
	var at []int
	ctx := &Context{OnProgress: func(n int, _ float64) { at = append(at, n) }}
	src := workload.NewFromSlice(mkReqs(make([]float64, 2500)))
	if _, err := RunMulti(ctx, devs, scheds, ConcatRouter(1<<29), src, Options{}); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 || at[0] != 1000 || at[1] != 2000 {
		t.Errorf("progress fired at %v, want [1000 2000]", at)
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
