// Package sim is the discrete-event simulation substrate standing in for
// DiskSim (§3): an open-arrival, single-server queueing system in which
// timestamped requests arrive from a workload source, wait in a scheduler
// queue, and are serviced one at a time by a mechanically-detailed device
// model. RunClosed serves requests back to back, and RunVolume spreads an
// open workload over per-member queues of an array.Volume (a plain
// stripe, a concatenation, a mirror or rotated parity).
//
// The simulator is deterministic: identical sources, schedulers and
// devices produce identical results.
package sim

import (
	"context"
	"fmt"

	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/stats"
	"memsim/internal/workload"
)

// Context carries run policy through the simulation entry points (Run,
// RunClosed, RunVolume): how a run is stopped, watched,
// checked and summarised. It separates *how a run is observed* from
// Options, which describe *what is simulated*: the parallel experiment
// runner hands every job one ready-made Context, and the interactive
// CLIs build their own, without touching the experiment declarations.
// A nil *Context is valid and observes nothing. Every run writes back
// into its Context — the cancellation latch read by Cancelled and the
// simulated time read by SimMs — so runs that share a Context must not
// run concurrently.
type Context struct {
	// Ctx, when non-nil, makes the run cancellable: the event loop polls
	// Ctx.Done() every 1024 events and, once cancelled, stops
	// dispatching, finalizes normally, and marks both the Result and
	// this Context Cancelled.
	// A nil Ctx (or context.Background, whose Done channel is nil) keeps
	// the poll-free fast path, so uncancellable runs stay byte-identical
	// to runs predating cancellation support.
	Ctx context.Context
	// Probe, when non-nil, is a shared observer: it sees every lifecycle
	// event after Options.Probe does, but the engine never resets it and
	// never surfaces a PhaseCollector inside it as Result.Phases. The
	// experiment runner puts its job-labelled trace probe here
	// (WithRun), so one probe can watch a whole batch, and memsim puts
	// its progress reporter here. Under parallel jobs it must be safe
	// for concurrent use (JSONLProbe is).
	Probe Probe
	// Check enables run-time self-verification: the engine attaches an
	// engine-owned invariant probe (composed after every other probe) and
	// panics at finalize on any violation — request conservation, event
	// clock monotonicity, negative phase times, breakdown reconciliation
	// drift beyond 1e-9, invalid request classes. Violations indicate a
	// simulation bug, so they follow the EventQueue convention of
	// panicking rather than returning an error; the runner converts the
	// panic into the job's Err. Probe attachment is behavior-neutral
	// (golden-equivalence discipline), so a clean checked run produces
	// byte-identical results to an unchecked one.
	Check bool

	// cancelled latches that some run under this Context was stopped
	// for cancellation; see Cancelled.
	cancelled bool
	// simMs totals the Elapsed of every run under this Context; see
	// SimMs.
	simMs float64
}

// Cancelled reports whether any run given this Context stopped early
// because Ctx was cancelled (the run's Result is then marked Cancelled
// too). The latch is sticky across runs, so a caller that drives
// several runs through one Context — an experiment runner job body —
// learns after the fact that one of them was cut short,
// without checking each Result. A nil Context is never cancelled.
func (c *Context) Cancelled() bool { return c != nil && c.cancelled }

// SimMs returns the simulated time, in ms, that the runs given this
// Context covered: the sum of their Result.Elapsed, a cancelled run's
// partial Elapsed included. The experiment runner reports it per job,
// so a job body that runs the engine need not time itself. A nil
// Context reports 0.
func (c *Context) SimMs() float64 {
	if c == nil {
		return 0
	}
	return c.simMs
}

// cancelEvery is the event interval between cancellation polls:
// frequent enough that cancellation lands within microseconds of
// wall-clock, sparse enough that the hot loop's cost is dominated by
// event dispatch, not polling.
const cancelEvery = 1024

// done returns the cancellation channel the event loop polls: nil for a
// nil Ctx or a Ctx that can never be cancelled (context.Background
// reports a nil Done channel), both of which keep the poll-free fast
// path.
func (c *Context) done() <-chan struct{} {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Done()
}

// Options describes what a run simulates: its measurement window, its
// fault injection, and the run-scoped probes whose state belongs to the
// run. A run serves its source until the source runs dry, so the
// source's own request count is what bounds it.
type Options struct {
	// Warmup excludes the first N completed requests from the reported
	// statistics, hiding cold-start transients.
	Warmup int
	// Injector, when non-nil, drives deterministic fault injection through
	// the run, in every regime: transient positioning errors recovered
	// by bounded device-level retry at the §6.1.3 penalty, scheduled tip
	// failures evolving the redundancy array mid-run, and
	// ECC-reconstruction surcharges on degraded-stripe reads. RunVolume
	// applies them to every member visit, and takes its whole-device
	// failures from the injector's device-event schedule.
	// The injector is Reset alongside the device and scheduler. A
	// zero-rate, event-free injector reproduces the no-injector run byte
	// for byte.
	Injector *fault.Injector
	// Probe, when non-nil, observes typed request-lifecycle events
	// (arrive, dispatch, per-phase service, retry/requeue, complete)
	// through every entry point. A nil Probe is zero-cost and
	// byte-identical to an unprobed run. These probes are run-scoped:
	// the engine resets every ProbeResetter among them alongside the
	// device and scheduler, and the first PhaseCollector among them
	// feeds Result.Phases. Invariant checking is not attached here but
	// through Context.Check. Shared observers that must outlive the run
	// belong in Context.Probe instead.
	Probe Probe
}

// Result summarizes a run. Response time (queue + service) and its
// squared coefficient of variation are the paper's two scheduler metrics
// (§4.1).
type Result struct {
	// Requests is the number of completions measured (after warmup).
	Requests int
	// Response accumulates response times in ms.
	Response stats.Welford
	// Service accumulates device service times in ms.
	Service stats.Welford
	// QueueLen accumulates the queue length seen at each dispatch.
	QueueLen stats.Welford
	// MaxQueue is the largest queue length observed.
	MaxQueue int
	// Busy is the total device busy time in ms.
	Busy float64
	// Elapsed is the completion time of the last request in ms.
	Elapsed float64
	// Cancelled reports that Context.Ctx was cancelled (deadline,
	// interrupt) before the run finished. The Result is a well-formed
	// partial: every statistic covers the completions that happened
	// before the stop, and Elapsed is the simulated time reached.
	Cancelled bool

	// The fault-injection counters below cover the entire run, warmup
	// included — they describe the run's fault activity, not the measured
	// window — and stay zero without an injector. Failed requests are
	// excluded from Requests and the Response/Service statistics, so the
	// paper's metrics keep their meaning under injection.

	// Retries is the number of transient-error retries charged.
	Retries int
	// Recovered is the number of requests that suffered at least one
	// transient error but still completed successfully.
	Recovered int
	// FailedRequests is the number of requests that exhausted every retry
	// and requeue and completed in error.
	FailedRequests int
	// DegradedReads is the number of reads that paid ECC reconstruction
	// for sectors on a degraded stripe.
	DegradedReads int
	// Requeues is the number of scheduler requeues after failed service
	// visits.
	Requeues int
	// RecoveryMs is the total added recovery time in ms (retry penalties
	// plus ECC surcharges).
	RecoveryMs float64
	// LostReads is the number of reads that addressed unrecoverable
	// sectors (a stripe past its ECC budget, or a lost volume) and
	// completed in error instead of being silently served. Each is also
	// counted in FailedRequests.
	LostReads int
	// DataLoss reports that the run ended with unrecoverable data: the
	// injector's tip array exceeded its ECC budget in some stripe, or a
	// redundant volume suffered a second concurrent member failure.
	DataLoss bool

	// ClampedRequests is always zero: no regime clamps a request (the
	// volume planner splits a strip-crossing one). It stays only because
	// the benchmark harness prints it, and goes with the striping
	// experiment's own clamp when that harness is next changed.
	ClampedRequests int

	// Phases holds the per-phase service aggregates when Options.Probe
	// contained a PhaseCollector; nil otherwise.
	Phases *PhaseStats

	// Members holds per-member-device aggregates for RunVolume runs; nil
	// for single-device runs.
	Members []MemberResult
	// Volume holds redundancy/failover aggregates for RunVolume runs;
	// nil otherwise.
	Volume *VolumeStats
}

// MemberResult aggregates one member device's share of a multi-queue
// run.
type MemberResult struct {
	// Requests counts the member operations the device served, one per
	// service visit, rebuild traffic included. The entire run is
	// covered, warmup included.
	Requests int
	// Busy is the device's total busy time in ms.
	Busy float64
	// Phases holds the member's per-phase service aggregates when
	// Options.Probe contained a PhaseCollector; nil otherwise. It folds
	// one observation per service visit (rebuild visits included).
	Phases *PhaseStats
}

// Utilization returns the fraction of elapsed time the device was busy.
func (r *Result) Utilization() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return r.Busy / r.Elapsed
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("n=%d mean-response=%.3fms cv²=%.2f mean-service=%.3fms util=%.0f%%",
		r.Requests, r.Response.Mean(), r.Response.SquaredCV(), r.Service.Mean(), r.Utilization()*100)
}

// requeue returns r to the scheduler after a failed service visit,
// preferring the scheduler's Requeue method (retried requests keep their
// place) over a plain Add.
func requeue(s core.Scheduler, r *core.Request) {
	if rq, ok := s.(core.Requeuer); ok {
		rq.Requeue(r)
		return
	}
	s.Add(r)
}

// classify tallies a finished request's fault outcome.
func classify(r *core.Request, res *Result) {
	if r.Failed {
		res.FailedRequests++
	} else if r.Retries > 0 {
		res.Recovered++
	}
	if r.Degraded {
		res.DegradedReads++
	}
}

// Run executes an open-arrival simulation: requests arrive at their
// source-assigned times, queue in s, and are serviced by d. The device
// and scheduler (and injector, if any) are Reset before the run. Under
// fault injection a request whose service visit exhausts its retry
// budget is requeued and serviced again later; past its requeue budget
// it completes as failed, excluded from the response statistics but
// counted in Result.FailedRequests.
func Run(ctx *Context, d core.Device, s core.Scheduler, src workload.Source, opts Options) Result {
	d.Reset()
	s.Reset()
	e := newEngine(ctx, opts)
	e.runOpen(d, s, src)
	e.loop()
	e.finalize()
	return e.res
}

// RunClosed executes a closed simulation: each request begins the
// moment the previous one completes (no queueing) — the regime of the
// data-placement experiments (§5.3), which compare average service
// times. When src implements workload.Thinker (workload.ThinkTime),
// each request additionally waits out a per-request think-time draw
// before issuing, modeling a multiprogrammed closed loop; plain sources
// keep the back-to-back behavior.
func RunClosed(ctx *Context, d core.Device, src workload.Source, opts Options) Result {
	d.Reset()
	e := newEngine(ctx, opts)
	e.runClosed(d, src)
	e.loop()
	e.finalize()
	return e.res
}

// ─── Generic event queue ───────────────────────────────────────────────
//
// EventQueue is the substrate under engine.go's discrete-event core: a
// minimal deterministic time-ordered event list with stable FIFO
// ordering for simultaneous events.

// Event is a timestamped callback.
type Event struct {
	Time float64
	Fn   func()

	seq int // insertion order, for stable ordering of ties
}

// EventQueue dispatches events in time order. The zero value is ready to
// use.
//
// The heap is hand-rolled over Event values rather than container/heap
// over pointers: Schedule is the engine's per-request hot path, and the
// value layout costs zero allocations per event (the backing array grows
// amortized and its capacity is reused for the rest of the run) where
// the interface-based heap paid one *Event allocation plus interface
// boxing per call.
type EventQueue struct {
	h   []Event
	seq int
	now float64
}

// Now returns the time of the most recently dispatched event.
func (q *EventQueue) Now() float64 { return q.now }

// Len reports the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// less orders events by time, then by insertion order for stable FIFO
// ties — the same comparator the simulator has always used.
func (q *EventQueue) less(i, j int) bool {
	if q.h[i].Time != q.h[j].Time {
		return q.h[i].Time < q.h[j].Time
	}
	return q.h[i].seq < q.h[j].seq
}

// Schedule enqueues fn to run at time t. Scheduling in the past (before
// the last dispatched event) panics: it indicates a simulation bug.
func (q *EventQueue) Schedule(t float64, fn func()) {
	if t < q.now {
		panic(fmt.Sprintf("sim: scheduling event at %g before current time %g", t, q.now))
	}
	q.seq++
	q.h = append(q.h, Event{Time: t, Fn: fn, seq: q.seq})
	// Sift up.
	for i := len(q.h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// Step dispatches the earliest event; it reports whether one was run.
func (q *EventQueue) Step() bool {
	if len(q.h) == 0 {
		return false
	}
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = Event{} // release the callback for GC
	q.h = q.h[:n]
	// Sift down.
	for i := 0; ; {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && q.less(right, left) {
			child = right
		}
		if !q.less(child, i) {
			break
		}
		q.h[i], q.h[child] = q.h[child], q.h[i]
		i = child
	}
	q.now = top.Time
	top.Fn()
	return true
}
