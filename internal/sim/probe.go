package sim

import (
	"memsim/internal/core"
	"memsim/internal/stats"
)

// EventKind enumerates the request-lifecycle events a Probe observes.
type EventKind uint8

const (
	// EventArrive fires when a request enters a scheduler queue.
	EventArrive EventKind = iota
	// EventDispatch fires when the scheduler hands a request to the
	// device.
	EventDispatch
	// EventService fires when one service visit finishes, carrying the
	// visit's phase Breakdown (recovery surcharges included).
	EventService
	// EventRetry fires for each device-level retry of a transient
	// positioning error (the PR-2 fault path); Breakdown.Recovery holds
	// the retry's penalty.
	EventRetry
	// EventRequeue fires when a failed service visit returns the request
	// to the scheduler queue.
	EventRequeue
	// EventComplete fires when a request leaves the system.
	EventComplete
	// EventDeviceFail fires when a scheduled whole-device failure flips
	// a volume member into the failed state (RunVolume); Dev is the
	// failed member slot. Req is nil.
	EventDeviceFail
	// EventRebuildStart fires when an online rebuild onto a hot spare
	// begins; Dev is the member slot being rebuilt. Req is nil.
	EventRebuildStart
	// EventRebuildDone fires when the rebuild completes and the spare
	// permanently backs the failed slot; Dev is the rebuilt member
	// slot. Req is nil.
	EventRebuildDone
	// EventRebuildPace fires when adaptive rebuild pacing changes its
	// pace mid-rebuild (never under the fixed RebuildFrac pacing); Dev
	// is the member slot being rebuilt, Queue the foreground queue depth
	// the decision saw, and Pace the new duty cycle. Req is nil.
	EventRebuildPace
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventArrive:
		return "arrive"
	case EventDispatch:
		return "dispatch"
	case EventService:
		return "service"
	case EventRetry:
		return "retry"
	case EventRequeue:
		return "requeue"
	case EventComplete:
		return "complete"
	case EventDeviceFail:
		return "device-fail"
	case EventRebuildStart:
		return "rebuild-start"
	case EventRebuildDone:
		return "rebuild-done"
	case EventRebuildPace:
		return "rebuild-pace"
	default:
		return "unknown"
	}
}

// ProbeEvent is one typed lifecycle observation. The Req pointer is the
// live simulation request: probes may read it but must not mutate it.
// Requests are reused. Under RunVolume a member op's request serves a
// later member op once its fork-join leg completes, and a request from
// a workload.Recycler goes back to its source once its complete event
// returns, to be handed out again. So a probe copies anything it keeps
// past Observe rather than the pointer.
type ProbeEvent struct {
	// Kind is the lifecycle stage.
	Kind EventKind
	// Time is the simulated time of the event in ms.
	Time float64
	// Run labels the simulation run (the job label when driven by the
	// experiment runner; empty otherwise).
	Run string
	// Dev is the device index for multi-device runs, 0 otherwise. On a
	// RunVolume complete event it is the device whose member op completed
	// last for the request, 0 if none did (a request refused at planning);
	// on its failover events it is the member slot.
	Dev int
	// Queue is the pending-queue length including this request, valid
	// for arrive and dispatch events.
	Queue int
	// Req is the request the event concerns; see the type's comment for
	// how long it stays that request.
	Req *core.Request
	// Breakdown carries the visit's phase decomposition for service
	// events, and the single retry's penalty (in Recovery) for retry
	// events. On complete events it is the request's phase sum, folded
	// with Breakdown.Accumulate from a zero Breakdown in visit order:
	// every service visit of the request, across requeues, and under
	// RunVolume every visit of every member op the request forked. It is
	// device time only; queue wait is not a phase.
	Breakdown core.Breakdown
	// Measured marks a complete event that lands in the measured window
	// (past warmup, not failed).
	Measured bool
	// Pace is the rebuild duty cycle chosen by a pace-change event
	// (EventRebuildPace); zero otherwise.
	Pace float64
}

// Probe observes request-lifecycle events. A nil Probe is valid and
// free: the simulator emits nothing, touches no Breakdown bookkeeping,
// and produces byte-identical results to an unprobed run (enforced by
// test, the same discipline as the zero-rate fault injector).
//
// Probes attached via Options.Probe or Context.Probe are called
// synchronously from the single-threaded simulation loop;
// implementations shared across parallel runner jobs must be safe for
// concurrent use (JSONLProbe is).
type Probe interface {
	Observe(ProbeEvent)
}

// ProbeResetter is implemented by probes with run-scoped state, such
// as PhaseCollector. The simulation entry points reset such probes in
// Options.Probe alongside the device and scheduler, so reusing one
// Options value across runs starts each run's statistics fresh.
// Context.Probe is never reset.
type ProbeResetter interface {
	ResetProbe()
}

// progressEvery is the completion interval between ProgressProbe
// reports.
const progressEvery = 1000

// ProgressProbe reports a run in flight: on every 1000th EventComplete
// (warmup and failed requests included) it calls Report with the
// completion count and the simulated time reached, in milliseconds.
// It keeps its count across runs, so it belongs on Context.Probe,
// which the engine never resets.
type ProgressProbe struct {
	Report func(completed int, simMs float64)
	done   int
}

// Observe implements Probe.
func (p *ProgressProbe) Observe(ev ProbeEvent) {
	if ev.Kind != EventComplete {
		return
	}
	if p.done++; p.done%progressEvery == 0 {
		p.Report(p.done, ev.Time)
	}
}

// MultiProbe fans events out to several probes in order; nil elements
// are skipped.
type MultiProbe []Probe

// Observe implements Probe.
func (m MultiProbe) Observe(ev ProbeEvent) {
	for _, p := range m {
		if p != nil {
			p.Observe(ev)
		}
	}
}

// runLabelProbe stamps a run label onto every event before forwarding.
// The engine's probe walk sees through it, so a labelled probe in
// Options.Probe is reset and resolved like a bare one; the runner's
// shared batch probe stays unreset because it rides in Context.Probe.
type runLabelProbe struct {
	run string
	p   Probe
}

func (l runLabelProbe) Observe(ev ProbeEvent) {
	ev.Run = l.run
	l.p.Observe(ev)
}

// WithRun wraps p so every observed event carries the given run label;
// the experiment runner uses it to attribute one shared probe's events
// to jobs. A nil p returns nil.
func WithRun(p Probe, run string) Probe {
	if p == nil {
		return nil
	}
	return runLabelProbe{run: run, p: p}
}

// breakdownOf returns d's decomposition of the access that just returned
// svc, or an undecomposed breakdown (all service unattributed) for
// devices that do not report one.
func breakdownOf(d core.Device, svc float64) core.Breakdown {
	if br, ok := d.(core.BreakdownReporter); ok {
		if bd, ok := br.LastBreakdown(); ok {
			return bd
		}
	}
	return core.Breakdown{ServiceMs: svc}
}

// PhaseStats aggregates per-request service-phase observations: one Dist
// (Welford moments + p95/p99) per phase, plus the derived positioning
// sum, the total device service, and the unattributed residue (≈0 for
// fully-decomposed devices; the check that per-phase sums reconcile
// with service time).
//
// Observations are per completed request in the measured window (past
// warmup, not failed), each the sum over the request's service visits.
type PhaseStats struct {
	// Seek, Settle, Turnaround, Transfer, Overhead and Recovery are the
	// phase distributions in ms.
	Seek, Settle, Turnaround, Transfer, Overhead, Recovery stats.Dist
	// Positioning is seek + settle + turnaround per request (§4.1's
	// positioning component).
	Positioning stats.Dist
	// Service is the total device time per request (all visits).
	Service stats.Dist
	// Unattributed is service − sum(phases) per request.
	Unattributed stats.Dist
	// Requests counts the measured completions folded in.
	Requests int
}

// add folds one completed request's accumulated breakdown in.
func (s *PhaseStats) add(bd core.Breakdown) {
	s.Seek.Add(bd.Seek)
	s.Settle.Add(bd.Settle)
	s.Turnaround.Add(bd.Turnaround)
	s.Transfer.Add(bd.Transfer)
	s.Overhead.Add(bd.Overhead)
	s.Recovery.Add(bd.Recovery)
	s.Positioning.Add(bd.Positioning())
	s.Service.Add(bd.ServiceMs)
	s.Unattributed.Add(bd.Unattributed())
	s.Requests++
}

// PhaseCollector is a Probe that aggregates PhaseStats over a run's
// measured completions. Attach it via Options.Probe (alone or inside a
// MultiProbe) and the run's Result.Phases holds a copy of its
// statistics at the end of the run (the first collector's, if there
// are several), which later runs on the collector leave alone.
type PhaseCollector struct {
	ps PhaseStats
}

// NewPhaseCollector returns an empty collector.
func NewPhaseCollector() *PhaseCollector { return &PhaseCollector{} }

// Observe implements Probe.
func (c *PhaseCollector) Observe(ev ProbeEvent) {
	if ev.Kind != EventComplete || !ev.Measured {
		return
	}
	c.ps.add(ev.Breakdown)
}

// ResetProbe implements ProbeResetter.
func (c *PhaseCollector) ResetProbe() { c.ps = PhaseStats{} }

// Stats returns the collected aggregates.
func (c *PhaseCollector) Stats() *PhaseStats { return &c.ps }
