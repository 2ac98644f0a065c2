// Package runner executes experiment jobs on a worker pool.
//
// The paper's evaluation is ~40 independent simulation runs per artifact
// (device × scheduler × workload × scale factor), but device models and
// schedulers are stateful and not safe for concurrent use
// (core.Scheduler's contract). So a Job is a body that builds every
// piece of mutable simulation state it needs — device, scheduler,
// workload source — and runs the engine under the run policy the pool
// hands it, and any worker can execute any job without sharing state
// with its siblings. The pool picks no regime and builds nothing: it
// runs bodies and reports their wall and simulated time.
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

	"memsim/internal/sim"
	"memsim/internal/stats"
)

// Job is one isolated unit of simulation work: a body that builds its
// own device, scheduler and source and runs them (sim.Run, sim.RunClosed,
// sim.RunVolume, ...) under SimContext, or measures without the engine
// (Monte-Carlo trials, direct Access timing).
type Job struct {
	// Label identifies the job in progress reports and error messages
	// (e.g. "fig6 SPTF rate=1500").
	Label string
	// Seed is the job's random seed. The body should draw all randomness
	// from it so the job's outcome is a pure function of its declaration.
	Seed int64

	// Body does the job's work; its return value becomes the job's
	// Value. A body that returns an error value fails the job with it —
	// the channel for the body's own errors. Cancellation and simulated
	// time are the runner's business: a body that runs the engine under
	// SimContext need not check or time anything, because a run cut
	// short there fails the job, and every run's Elapsed is reported as
	// the job's simulated time. Only a body with work of its own between
	// runs (a Monte-Carlo loop) polls Ctx.
	Body func(j *Job) any

	val  any
	err  error
	done bool

	// sctx is the run policy the pool installs before executing the job:
	// its cancellation context (batch signal plus per-job deadline), the
	// batch probe labelled with the job, and the check and sketch
	// switches. The engine writes the job's simulated time back into it.
	sctx *sim.Context
}

// Ctx returns the job's lifecycle context: the batch cancellation
// context bounded by the per-job deadline, installed by the pool before
// the job runs. Bodies poll it (or thread it via SimContext) to stop
// early; before the job runs it is context.Background.
func (j *Job) Ctx() context.Context { return j.SimContext().Ctx }

// SimContext returns the job's run policy, for the body to pass as the
// first argument of the sim entry points: its runs then stop at batch
// cancellation or the job's deadline, feed the batch probe under the
// job's label, honor `-check` and `-sketch`, and add their simulated
// time to the job's. Before the job runs it is an inert context wired
// to context.Background.
func (j *Job) SimContext() *sim.Context {
	if j.sctx == nil {
		return &sim.Context{Ctx: context.Background()}
	}
	return j.sctx
}

// Err returns the job's execution error (nil if it succeeded or has not
// run yet). After Context.Run returns, a non-nil Err explains why the
// job's Value must not be read.
func (j *Job) Err() error { return j.err }

// Value returns the body's return value. It panics if the job has not
// run successfully — assembling tables before Run returns, or from a
// failed job, is a programming error the panic makes loud.
func (j *Job) Value() any {
	if !j.done {
		panic(fmt.Sprintf("runner: job %q read before it ran", j.Label))
	}
	return j.val
}

// run executes the body under the job's installed run policy,
// converting panics into errors so one bad job cannot take down the
// whole pool. An engine run stopped by cancellation latches the policy
// (see sim.Context.Cancelled), and the job fails with the context's
// error instead of publishing a partial Value.
func (j *Job) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job %q: panic: %v", j.Label, r)
		}
	}()
	if j.Body == nil {
		return fmt.Errorf("job %q: no body", j.Label)
	}
	j.val = j.Body(j)
	if cerr, ok := j.val.(error); ok && cerr != nil {
		return fmt.Errorf("job %q: %w", j.Label, cerr)
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
	// WallMs is the host time the job took; SimMs the simulated time its
	// engine runs covered (0 for a job that ran none).
	WallMs, SimMs float64
	// Err is non-nil when the job failed (cancelled, panicked, returned
	// an error, or had no body).
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
	// context or a per-job deadline (Context.Sim.Ctx, Context.Timeout) —
	// the done/cancelled split an interrupted CLI reports.
	Cancelled int
}

// Context is a batch's execution policy: how wide the worker pool is,
// who hears about progress, how long one job may take, and the run
// policy every job's engine runs inherit.
type Context struct {
	// Workers caps concurrent job execution; zero or negative means
	// GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives an Event after every job
	// completes. Events arrive serialized (never concurrently) but in
	// completion order, which under parallelism is not declaration order.
	Progress func(Event)
	// Timeout, when positive, bounds each job's wall-clock execution
	// individually. A job that exceeds it fails with
	// context.DeadlineExceeded through Job.Err without affecting its
	// siblings — the pool keeps executing the rest of the batch.
	Timeout time.Duration
	// Sim is the run policy of every engine run in the batch. Each job
	// runs under its own copy (Job.SimContext), so the runner never
	// writes the batch's Sim; pass a fresh one, because a latch a run
	// already set in it (Cancelled, SimMs) would be copied into every
	// job. Sim.Ctx, when non-nil, cancels the whole batch:
	// in-flight jobs stop at their engine's next cancellation poll and
	// fail with the context's error, jobs not yet started are skipped
	// with the same error, and Run returns once the pool drains.
	// Sim.Probe sees every job's runs with each event's Run field set to
	// the job label; it is shared across workers, so under parallelism
	// it must be safe for concurrent use (sim.JSONLProbe is), and with
	// Workers: 1 events arrive in declaration order. Sim.Check and
	// Sim.Sketch apply to every run.
	Sim sim.Context
}

// jobContext builds j's run policy from the batch policy: a copy of
// Sim whose Ctx is bounded by the per-job Timeout and whose Probe is
// labelled with the job. The returned cancel releases the deadline's
// timer.
func (c *Context) jobContext(j *Job) (*sim.Context, context.CancelFunc) {
	sc := c.Sim
	cancel := context.CancelFunc(func() {})
	if sc.Ctx == nil {
		sc.Ctx = context.Background()
	}
	if c.Timeout > 0 {
		sc.Ctx, cancel = context.WithTimeout(sc.Ctx, c.Timeout)
	}
	sc.Probe = sim.WithRun(sc.Probe, j.Label)
	return &sc, cancel
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
				if batch := c.Sim.Ctx; batch != nil && batch.Err() != nil {
					// The batch is cancelled: skip jobs that have not
					// started rather than burning their setup cost.
					err = fmt.Errorf("job %q: %w", j.Label, batch.Err())
				} else {
					err = j.run()
				}
				cancel()
				j.err = err
				wallMs := float64(time.Since(jobStart)) / float64(time.Millisecond)
				simMs := j.sctx.SimMs()
				wall.Add(wallMs)
				simt.Add(simMs)
				mu.Lock()
				done++
				if c.Progress != nil {
					c.Progress(Event{
						Label: j.Label, Done: done, Total: len(jobs),
						WallMs: wallMs, SimMs: simMs, Err: err,
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
