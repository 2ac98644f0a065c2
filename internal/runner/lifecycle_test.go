package runner

import (
	"context"
	"errors"
	"math"
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
		Body: func(j *Job) any {
			<-j.Ctx().Done() // park until the per-job deadline fires
			return j.Ctx().Err()
		},
	}
	quick := openJob("quick", 10, 1, sim.Options{})
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
	if result(quick).Requests != 10 {
		t.Errorf("sibling requests = %d, want 10", result(quick).Requests)
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
			Body: func(j *Job) any {
				ran.Add(1)
				return nil
			},
		})
	}
	sum, err := (&Context{Workers: 1, Sim: sim.Context{Ctx: cctx, Check: true}}).Run(jobs)
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
	// Cancellation mid-run fails a job declared as one engine run with
	// the context error and keeps the partial Result it returned
	// unreadable.
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := &Job{Label: "interrupted", Body: func(job *Job) any {
		d := &cancellingDevice{tickDevice{svc: 1}, 100, cancel}
		src := workload.DefaultRandom(100, d.SectorSize(), d.Capacity(), 5000, 1)
		return sim.Run(job.SimContext(), d, sched.NewFCFS(), src, sim.Options{})
	}}
	_, err := (&Context{Workers: 1, Sim: sim.Context{Ctx: cctx}}).Run([]*Job{j})
	if err == nil {
		t.Fatal("interrupted batch returned nil error")
	}
	if !errors.Is(j.Err(), context.Canceled) {
		t.Fatalf("job err = %v, want Canceled", j.Err())
	}
	defer func() {
		if recover() == nil {
			t.Error("Value() of a cancelled job did not panic")
		}
	}()
	result(j)
}

func TestCustomJobCancelledMidRun(t *testing.T) {
	// A body that runs the engine under SimContext and returns without
	// checking anything still fails with the context error when the run
	// is cut short: cancellation is decided by the runner, and Value
	// stays unreadable.
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := &Job{Label: "interrupted custom", Body: func(job *Job) any {
		d := &cancellingDevice{tickDevice{svc: 1}, 100, cancel}
		src := workload.DefaultRandom(100, d.SectorSize(), d.Capacity(), 5000, 1)
		return sim.Run(job.SimContext(), d, sched.NewFCFS(), src, sim.Options{}).Requests
	}}
	_, err := (&Context{Workers: 1, Sim: sim.Context{Ctx: cctx}}).Run([]*Job{j})
	if err == nil {
		t.Fatal("interrupted batch returned nil error")
	}
	if !errors.Is(j.Err(), context.Canceled) {
		t.Fatalf("job err = %v, want Canceled", j.Err())
	}
	defer func() {
		if recover() == nil {
			t.Error("Value() of a cancelled job did not panic")
		}
	}()
	j.Value()
}

func TestCustomErrorReturnFailsJob(t *testing.T) {
	// The error-return convention: a body returning a non-nil
	// error fails the job with it, and Value stays unreadable.
	boom := errors.New("boom")
	j := &Job{Label: "erring", Body: func(*Job) any { return boom }}
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
	// defaults a body can use unconditionally.
	j := &Job{Label: "unrun"}
	if j.Ctx() != context.Background() {
		t.Error("Ctx before run is not context.Background")
	}
	sc := j.SimContext()
	if sc.Check || sc.Probe != nil || sc.SimMs() != 0 {
		t.Errorf("run policy set before run: %+v", sc)
	}
	if sc.Ctx != context.Background() {
		t.Error("SimContext not wired to Background before run")
	}
}

func TestContextCheckReachesCustomBodies(t *testing.T) {
	// The batch policy — Check and the labelled probe — reaches
	// bodies through SimContext, the same context Ctx reads.
	var saw sim.Context
	var sameCtx bool
	j := &Job{Label: "checked", Body: func(job *Job) any {
		saw = *job.SimContext()
		sameCtx = saw.Ctx == job.Ctx()
		return nil
	}}
	lp := &labelProbe{}
	if _, err := (&Context{Workers: 1, Sim: sim.Context{Check: true, Probe: lp}}).Run([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	if !saw.Check {
		t.Errorf("Check did not reach the body: %+v", saw)
	}
	if saw.Probe == nil {
		t.Fatal("batch probe did not reach the body")
	}
	saw.Probe.Observe(sim.ProbeEvent{Kind: sim.EventComplete})
	if len(lp.labels) != 1 || lp.labels[0] != "checked" {
		t.Errorf("body's probe is not labelled with the job: %v", lp.labels)
	}
	if !sameCtx {
		t.Error("SimContext().Ctx differs from Ctx()")
	}
}

func TestJobSimTime(t *testing.T) {
	// The engine reports each job's simulated time: the summed Elapsed
	// of every run its body drove, a cancelled run's partial Elapsed
	// included, and 0 for a body that runs none. It reaches both the
	// progress Event and the Summary.
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var partial sim.Result
	jobs := []*Job{
		{Label: "two runs", Body: func(j *Job) any {
			return closedRun(j, 10, 2).Elapsed + closedRun(j, 5, 3).Elapsed
		}},
		{Label: "no run", Body: func(*Job) any { return 0.0 }},
		{Label: "cancelled", Body: func(j *Job) any {
			d := &cancellingDevice{tickDevice{svc: 1}, 100, cancel}
			src := workload.DefaultRandom(100, d.SectorSize(), d.Capacity(), 5000, 1)
			partial = sim.Run(j.SimContext(), d, sched.NewFCFS(), src, sim.Options{})
			return partial
		}},
	}
	got := map[string]float64{}
	c := &Context{Workers: 1, Sim: sim.Context{Ctx: cctx}, Progress: func(ev Event) { got[ev.Label] = ev.SimMs }}
	sum, _ := c.Run(jobs)
	if jobs[0].Value().(float64) != 35 || got["two runs"] != 35 {
		t.Errorf("two runs: body saw %v, event %g, want 35", jobs[0].Value(), got["two runs"])
	}
	if v, ok := got["no run"]; !ok || v != 0 {
		t.Errorf("no run: event %g (reported %v), want 0", v, ok)
	}
	if !errors.Is(jobs[2].Err(), context.Canceled) || !partial.Cancelled {
		t.Fatalf("cancelled job: err %v, result cancelled %v", jobs[2].Err(), partial.Cancelled)
	}
	if got["cancelled"] != partial.Elapsed || partial.Elapsed <= 0 || partial.Elapsed >= 50000 {
		t.Errorf("cancelled: event %g, partial Elapsed %g", got["cancelled"], partial.Elapsed)
	}
	if want := 35 + partial.Elapsed; sum.Sim.N() != 3 || math.Abs(sum.Sim.Mean()*3-want) > 1e-9*want {
		t.Errorf("summary sim = %g over %d jobs, want %g over 3", sum.Sim.Mean()*3, sum.Sim.N(), want)
	}
}
