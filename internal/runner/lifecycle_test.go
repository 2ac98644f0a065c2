package runner

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memsim/internal/core"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

func TestJobTimeoutDeadlineExceeded(t *testing.T) {
	// A job that overruns Context.Timeout fails with DeadlineExceeded;
	// its siblings are unaffected and the summary splits the counts.
	slow := &Job{
		Label: "slow",
		Custom: func(j *Job) any {
			<-j.Ctx().Done() // park until the per-job deadline fires
			return j.Ctx().Err()
		},
	}
	quick := openJob("quick", 10, 1)
	ctx := &Context{Workers: 2, Timeout: 20 * time.Millisecond}
	sum, err := ctx.Run([]*Job{slow, quick})
	if err == nil {
		t.Fatal("batch with a timed-out job returned nil error")
	}
	if !errors.Is(slow.Err(), context.DeadlineExceeded) {
		t.Errorf("slow job err = %v, want DeadlineExceeded", slow.Err())
	}
	if !strings.Contains(slow.Err().Error(), `"slow"`) {
		t.Errorf("error %q does not name the job", slow.Err())
	}
	if quick.Err() != nil {
		t.Errorf("sibling failed: %v", quick.Err())
	}
	if quick.Result().Requests != 10 {
		t.Errorf("sibling requests = %d, want 10", quick.Result().Requests)
	}
	if sum.Failed != 1 || sum.Cancelled != 1 {
		t.Errorf("summary failed=%d cancelled=%d, want 1/1", sum.Failed, sum.Cancelled)
	}
}

func TestBatchCancelSkipsQueuedJobs(t *testing.T) {
	// A batch whose Ctx is already cancelled skips every job: each fails
	// with the context error and none executes its body, yet each still
	// carries the batch's run policy.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	jobs := []*Job{}
	for i := 0; i < 3; i++ {
		jobs = append(jobs, &Job{
			Label: "skipped",
			Custom: func(j *Job) any {
				ran.Add(1)
				return nil
			},
		})
	}
	sum, err := (&Context{Workers: 1, Ctx: cctx, Check: true}).Run(jobs)
	if err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d job bodies ran in a cancelled batch", n)
	}
	if sum.Failed != 3 || sum.Cancelled != 3 {
		t.Errorf("summary failed=%d cancelled=%d, want 3/3", sum.Failed, sum.Cancelled)
	}
	for _, j := range jobs {
		if !errors.Is(j.Err(), context.Canceled) {
			t.Errorf("job err = %v, want Canceled", j.Err())
		}
		if !errors.Is(j.Ctx().Err(), context.Canceled) || !j.SimContext().Check {
			t.Errorf("skipped job policy: ctx err %v, check %v", j.Ctx().Err(), j.SimContext().Check)
		}
	}
}

// cancellingDevice cancels the batch context after n accesses, modeling
// an interrupt arriving mid-simulation.
type cancellingDevice struct {
	tickDevice
	left   int
	cancel context.CancelFunc
}

func (d *cancellingDevice) Access(r *core.Request, now float64) float64 {
	if d.left--; d.left == 0 {
		d.cancel()
	}
	return d.tickDevice.Access(r, now)
}

func TestDeclarativeJobCancelledMidRun(t *testing.T) {
	// Cancellation mid-run fails a declarative job with the context
	// error and keeps its partial Result unreadable.
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := &Job{
		Label:     "interrupted",
		Device:    func() core.Device { return &cancellingDevice{tickDevice{svc: 1}, 100, cancel} },
		Scheduler: func() core.Scheduler { return sched.NewFCFS() },
		Source: func(d core.Device) workload.Source {
			return workload.DefaultRandom(100, d.SectorSize(), d.Capacity(), 5000, 1)
		},
	}
	_, err := (&Context{Workers: 1, Ctx: cctx}).Run([]*Job{j})
	if err == nil {
		t.Fatal("interrupted batch returned nil error")
	}
	if !errors.Is(j.Err(), context.Canceled) {
		t.Fatalf("job err = %v, want Canceled", j.Err())
	}
	defer func() {
		if recover() == nil {
			t.Error("Result() of a cancelled job did not panic")
		}
	}()
	j.Result()
}

func TestCustomJobCancelledMidRun(t *testing.T) {
	// A Custom body that runs the engine under SimContext and returns
	// without checking anything still fails with the context error when
	// the run is cut short: cancellation is decided by the runner, for
	// Custom and declarative jobs alike, and Value stays unreadable.
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := &Job{Label: "interrupted custom", Custom: func(job *Job) any {
		d := &cancellingDevice{tickDevice{svc: 1}, 100, cancel}
		src := workload.DefaultRandom(100, d.SectorSize(), d.Capacity(), 5000, 1)
		return sim.Run(job.SimContext(), d, sched.NewFCFS(), src, sim.Options{}).Requests
	}}
	_, err := (&Context{Workers: 1, Ctx: cctx}).Run([]*Job{j})
	if err == nil {
		t.Fatal("interrupted batch returned nil error")
	}
	if !errors.Is(j.Err(), context.Canceled) {
		t.Fatalf("job err = %v, want Canceled", j.Err())
	}
	defer func() {
		if recover() == nil {
			t.Error("Value() of a cancelled Custom job did not panic")
		}
	}()
	j.Value()
}

func TestCustomErrorReturnFailsJob(t *testing.T) {
	// The Custom error-return convention: a body returning a non-nil
	// error fails the job with it, and Value stays unreadable.
	boom := errors.New("boom")
	j := &Job{Label: "erring", Custom: func(*Job) any { return boom }}
	_, err := Sequential().Run([]*Job{j})
	if err == nil || !errors.Is(j.Err(), boom) {
		t.Fatalf("err = %v, want wrapped boom", j.Err())
	}
	if !strings.Contains(j.Err().Error(), `"erring"`) {
		t.Errorf("error %q does not name the job", j.Err())
	}
	defer func() {
		if recover() == nil {
			t.Error("Value() of a failed job did not panic")
		}
	}()
	j.Value()
}

func TestJobLifecycleAccessorsBeforeRun(t *testing.T) {
	// Before the pool installs anything, the accessors return inert
	// defaults a Custom body can use unconditionally.
	j := &Job{Label: "unrun"}
	if j.Ctx() != context.Background() {
		t.Error("Ctx before run is not context.Background")
	}
	sc := j.SimContext()
	if sc.Check || sc.Sketch || sc.Probe != nil {
		t.Errorf("run policy set before run: %+v", sc)
	}
	if sc.Ctx != context.Background() {
		t.Error("SimContext not wired to Background before run")
	}
}

func TestContextCheckReachesCustomBodies(t *testing.T) {
	// The batch policy — Check, Sketch and the labelled probe — reaches
	// Custom bodies through SimContext, the same context Ctx reads.
	var saw sim.Context
	var sameCtx bool
	j := &Job{Label: "checked", Custom: func(job *Job) any {
		saw = *job.SimContext()
		sameCtx = saw.Ctx == job.Ctx()
		return nil
	}}
	lp := &labelProbe{}
	if _, err := (&Context{Workers: 1, Check: true, Sketch: true, Probe: lp}).Run([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	if !saw.Check || !saw.Sketch {
		t.Errorf("Check/Sketch did not reach the Custom body: %+v", saw)
	}
	if saw.Probe == nil {
		t.Fatal("batch probe did not reach the Custom body")
	}
	saw.Probe.Observe(sim.ProbeEvent{Kind: sim.EventComplete})
	if len(lp.labels) != 1 || lp.labels[0] != "checked" {
		t.Errorf("Custom body's probe is not labelled with the job: %v", lp.labels)
	}
	if !sameCtx {
		t.Error("SimContext().Ctx differs from Ctx()")
	}
}
