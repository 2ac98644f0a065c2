// Package runner executes declarative experiment jobs on a worker pool.
//
// The paper's evaluation is ~40 independent simulation runs per artifact
// (device × scheduler × workload × scale factor), but device models and
// schedulers are stateful and not safe for concurrent use
// (core.Scheduler's contract), so nothing imperative could be
// parallelized. A Job instead names factories for every piece of mutable
// simulation state — device, scheduler, workload source — and the pool
// builds fresh instances per job, so any worker can execute any job
// without sharing state with its siblings.
//
// Determinism: each job's randomness derives from its own Seed, results
// land in per-job slots, and callers assemble output by reading those
// slots in declaration order after Run returns. A run with 8 workers is
// therefore byte-identical to a run with 1, regardless of completion
// order.
package runner

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"memsim/internal/core"
	"memsim/internal/sim"
	"memsim/internal/stats"
	"memsim/internal/workload"
)

// Job declares one isolated unit of simulation work.
//
// The declarative fields (Device, Scheduler, Source, Options) describe
// the standard single-device regimes: a non-nil Scheduler factory selects
// the open-arrival loop (sim.Run), a nil one the closed back-to-back loop
// (sim.RunClosed). Custom replaces the declarative run entirely for
// bespoke measurement loops (Monte-Carlo trials, multi-device volumes,
// direct Access timing); a Custom body must construct every piece of
// mutable state itself.
type Job struct {
	// Label identifies the job in progress reports and error messages
	// (e.g. "fig6 SPTF rate=1500").
	Label string
	// Seed is the job's random seed. Factories and Custom bodies should
	// draw all randomness from it so the job's outcome is a pure function
	// of its declaration.
	Seed int64

	// Device builds the fresh device instance for this job.
	Device core.DeviceFactory
	// Scheduler, when non-nil, builds the job's scheduler and selects the
	// open-arrival regime; nil selects the closed-loop regime.
	Scheduler core.SchedulerFactory
	// Source builds the job's workload stream, sized to the job's device.
	Source workload.Factory
	// Options passes through to the simulation entry point.
	Options sim.Options

	// Custom, when non-nil, replaces the declarative run; its return
	// value becomes the job's Value. It may report simulated time by
	// setting SimMs. A Custom body that returns an error value fails the
	// job with it — the channel for the body's own errors. Cancellation
	// is the runner's business: a body that runs the engine under
	// SimContext need not check anything, because a run cut short there
	// fails the job exactly as it fails a declarative one. Only a body
	// with work of its own between runs (a Monte-Carlo loop) polls Ctx.
	Custom func(j *Job) any

	// SimMs is the simulated time the job covered in milliseconds. The
	// declarative path fills it from the run's Elapsed; Custom bodies may
	// set it themselves.
	SimMs float64

	res  sim.Result
	val  any
	err  error
	done bool

	// sctx is the run policy the pool installs before executing the job:
	// its cancellation context (batch signal plus per-job deadline), the
	// batch probe labelled with the job, and the check and sketch
	// switches.
	sctx *sim.Context
}

// Ctx returns the job's lifecycle context: the batch Context.Ctx bounded
// by the per-job deadline, installed by the pool before the job runs.
// Custom bodies poll it (or thread it via SimContext) to stop early;
// before the job runs it is context.Background.
func (j *Job) Ctx() context.Context { return j.SimContext().Ctx }

// SimContext returns the job's run policy, for Custom bodies to pass as
// the first argument of the sim entry points: their inner runs then
// stop at batch cancellation or the job's deadline, feed the batch
// probe under the job's label, and honor `-check` and `-sketch` exactly
// as declarative jobs do. Before the job runs it is an inert context
// wired to context.Background.
func (j *Job) SimContext() *sim.Context {
	if j.sctx == nil {
		return &sim.Context{Ctx: context.Background()}
	}
	return j.sctx
}

// Err returns the job's execution error (nil if it succeeded or has not
// run yet). After Context.Run returns, a non-nil Err explains why the
// job's Result/Value must not be read.
func (j *Job) Err() error { return j.err }

// Result returns the declarative run's result. It panics if the job has
// not been executed yet — assembling tables before Run returns is a
// programming error the panic makes loud.
func (j *Job) Result() sim.Result {
	if !j.done {
		panic(fmt.Sprintf("runner: job %q read before it ran", j.Label))
	}
	return j.res
}

// Value returns the Custom body's return value, with the same
// must-have-run contract as Result.
func (j *Job) Value() any {
	if !j.done {
		panic(fmt.Sprintf("runner: job %q read before it ran", j.Label))
	}
	return j.val
}

// run executes the job under its installed run policy, converting
// panics into errors so one bad job cannot take down the whole pool.
// Declarative runs pass the policy and the job's Options straight to
// the engine; Custom bodies reach it through SimContext. Either way, an
// engine run stopped by cancellation latches the policy (see
// sim.Context.Cancelled), and the job fails with the context's error
// instead of publishing a partial Result or Value.
func (j *Job) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job %q: panic: %v", j.Label, r)
		}
	}()
	switch {
	case j.Custom != nil:
		j.val = j.Custom(j)
		if cerr, ok := j.val.(error); ok && cerr != nil {
			return fmt.Errorf("job %q: %w", j.Label, cerr)
		}
	case j.Device == nil || j.Source == nil:
		return fmt.Errorf("job %q: no Custom body and no device/source factories", j.Label)
	case j.Scheduler != nil:
		d := j.Device()
		j.res = sim.Run(j.sctx, d, j.Scheduler(), j.Source(d), j.Options)
		j.SimMs = j.res.Elapsed
	default:
		d := j.Device()
		j.res = sim.RunClosed(j.sctx, d, j.Source(d), j.Options)
		j.SimMs = j.res.Elapsed
	}
	if j.sctx.Cancelled() {
		cause := j.sctx.Ctx.Err()
		if cause == nil {
			cause = context.Canceled
		}
		return fmt.Errorf("job %q: %w", j.Label, cause)
	}
	j.done = true
	return nil
}

// Event describes one finished job to a progress callback.
type Event struct {
	// Label of the job that just finished.
	Label string
	// Done and Total count finished and scheduled jobs in the batch.
	Done, Total int
	// WallMs is the host time the job took; SimMs the simulated time it
	// covered.
	WallMs, SimMs float64
	// Err is non-nil when the job failed (panicked or was misdeclared).
	Err error
}

// Summary aggregates a batch's metrics.
type Summary struct {
	// Jobs is the number of jobs executed.
	Jobs int
	// Wall and Sim accumulate per-job wall-clock and simulated
	// milliseconds.
	Wall, Sim stats.Welford
	// ElapsedMs is the batch's host wall-clock from first dispatch to
	// last completion.
	ElapsedMs float64
	// Failed counts jobs that finished with a non-nil Err, for whatever
	// reason.
	Failed int
	// Cancelled counts the subset of failed jobs stopped by the batch
	// context or a per-job deadline (Context.Ctx, Context.Timeout) —
	// the done/cancelled split an interrupted CLI reports.
	Cancelled int
}

// Context carries execution policy and observability through a batch of
// jobs: how wide the worker pool is and who hears about progress.
type Context struct {
	// Workers caps concurrent job execution; zero or negative means
	// GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives an Event after every job
	// completes. Events arrive serialized (never concurrently) but in
	// completion order, which under parallelism is not declaration order.
	Progress func(Event)
	// Probe, when non-nil, observes the request lifecycle of every
	// engine run in the batch, declarative or Custom (sim.Context.Probe),
	// with each event's Run field set to the job label. The probe is
	// shared across workers, so it must be safe for concurrent use under
	// parallelism (sim.JSONLProbe is); with Workers: 1 events arrive in
	// declaration order. It composes after any probe a job declared
	// itself and is never reset between jobs.
	Probe sim.Probe
	// Ctx, when non-nil, cancels the whole batch: in-flight jobs stop at
	// their engine's next cancellation poll and fail with the context's
	// error, jobs not yet started are skipped with the same error, and
	// Run returns once the pool drains. nil means the batch cannot be
	// cancelled.
	Ctx context.Context
	// Timeout, when positive, bounds each job's wall-clock execution
	// individually. A job that exceeds it fails with
	// context.DeadlineExceeded through Job.Err without affecting its
	// siblings — the pool keeps executing the rest of the batch.
	Timeout time.Duration
	// Check enables simulator invariant checking (sim.Context.Check) on
	// every engine run in the batch.
	Check bool
	// Sketch switches every engine run's percentile aggregates to the
	// bounded quantile sketch (sim.Context.Sketch), keeping stats memory
	// O(1) at any request count.
	Sketch bool
}

// jobContext builds j's run policy from the batch policy: the batch
// Ctx bounded by the per-job Timeout, the batch probe labelled with the
// job, and the check and sketch switches. The returned cancel releases
// the deadline's timer.
func (c *Context) jobContext(j *Job) (*sim.Context, context.CancelFunc) {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if c.Ctx != nil {
		ctx = c.Ctx
	}
	if c.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
	}
	return &sim.Context{Ctx: ctx, Probe: sim.WithRun(c.Probe, j.Label), Check: c.Check, Sketch: c.Sketch}, cancel
}

// Run executes every job and returns aggregate metrics. Jobs run on a
// pool of Context.Workers goroutines; results land in the jobs' own
// slots. If any jobs fail, Run still executes the remaining jobs (they
// are independent) and returns every failure joined in declaration
// order — deterministic regardless of completion order. Per-job errors
// also stay readable through Job.Err.
func (c *Context) Run(jobs []*Job) (Summary, error) {
	if c == nil {
		c = &Context{}
	}
	workers := runtime.GOMAXPROCS(0)
	if c.Workers > 0 {
		workers = c.Workers
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if len(jobs) == 0 {
		return Summary{}, nil
	}

	start := time.Now()
	var (
		wall, simt stats.Meter
		mu         sync.Mutex // guards done count and Progress calls
		done       int
		wg         sync.WaitGroup
	)
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				j := jobs[i]
				jobStart := time.Now()
				var cancel context.CancelFunc
				j.sctx, cancel = c.jobContext(j)
				var err error
				if c.Ctx != nil && c.Ctx.Err() != nil {
					// The batch is cancelled: skip jobs that have not
					// started rather than burning their setup cost.
					err = fmt.Errorf("job %q: %w", j.Label, c.Ctx.Err())
				} else {
					err = j.run()
				}
				cancel()
				j.err = err
				wallMs := float64(time.Since(jobStart)) / float64(time.Millisecond)
				wall.Add(wallMs)
				simt.Add(j.SimMs)
				mu.Lock()
				done++
				if c.Progress != nil {
					c.Progress(Event{
						Label: j.Label, Done: done, Total: len(jobs),
						WallMs: wallMs, SimMs: j.SimMs, Err: err,
					})
				}
				mu.Unlock()
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Aggregate failures in declaration order, not completion order, so
	// the joined error is deterministic under parallelism.
	var errs []error
	failed, cancelled := 0, 0
	for _, j := range jobs {
		if j.err != nil {
			errs = append(errs, j.err)
			failed++
			if errors.Is(j.err, context.Canceled) || errors.Is(j.err, context.DeadlineExceeded) {
				cancelled++
			}
		}
	}
	sum := Summary{
		Jobs:      len(jobs),
		Wall:      wall.Snapshot(),
		Sim:       simt.Snapshot(),
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
		Failed:    failed,
		Cancelled: cancelled,
	}
	return sum, errors.Join(errs...)
}

// Sequential returns a single-worker context: the reference execution
// order that parallel runs must reproduce byte-for-byte.
func Sequential() *Context { return &Context{Workers: 1} }

// DeriveSeed maps a base seed and a job label to a stable per-job seed,
// so sweeps that want decorrelated randomness per job can derive it
// deterministically from the declaration alone.
func DeriveSeed(base int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return base ^ int64(h.Sum64())
}
