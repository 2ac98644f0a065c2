// invariant.go is the run-time self-verification layer: invariantProbe
// watches the same lifecycle event stream every other probe sees and
// validates the simulator's structural invariants on each event —
// conservation, clock sanity, non-negative phase times, breakdown
// reconciliation, class validity. Context.Check is its one entry point:
// the engine builds a fresh instance for every checked run and panics
// at finalize on any recorded violation.
package sim

import (
	"errors"
	"fmt"
	"math"

	"memsim/internal/core"
)

// invariantTol is the absolute slack allowed on float comparisons, and
// the relative slack (scaled by service time) on breakdown
// reconciliation. Phase decompositions are built from sums of closed
// forms, so anything beyond ~1e-9 is a real accounting leak, not float
// noise.
const invariantTol = 1e-9

// maxViolations caps how many violations one run records: the first
// failure is the diagnostic; thousands of repeats of it are noise.
const maxViolations = 8

// invariantProbe validates the simulator's structural invariants over a
// run's lifecycle event stream:
//
//   - conservation: measured completions reconcile with Result.Requests
//     and failed completions with Result.FailedRequests (the engine
//     separately asserts arrivals = completions when a checked run
//     drains naturally);
//   - clock monotonicity: engine-clock events (dispatch, requeue,
//     complete, device-fail, rebuild-*) never move backwards, arrivals
//     never regress within the arrival stream, and every timestamp is
//     finite and non-negative;
//   - service sanity: per-visit phase times are non-negative and the
//     phase sum reconciles with the visit's service time to within
//     1e-9 (relative) on decomposing devices;
//   - request validity: scheduling classes are in range and completed
//     requests have ordered Arrival/Start/Finish stamps and
//     non-negative accumulated phase and recovery times.
type invariantProbe struct {
	violations []string

	lastClock  float64
	lastArrive float64
	sawClock   bool
	sawArrive  bool

	completes int
	measured  int
	failed    int
}

// newInvariantProbe returns an empty probe.
func newInvariantProbe() *invariantProbe { return &invariantProbe{} }

// violate records one violation, keeping only the first maxViolations.
func (ip *invariantProbe) violate(format string, args ...any) {
	if len(ip.violations) < maxViolations {
		ip.violations = append(ip.violations, fmt.Sprintf(format, args...))
	}
}

// Err returns every recorded violation joined into one error, or nil
// for a clean run.
func (ip *invariantProbe) Err() error {
	if len(ip.violations) == 0 {
		return nil
	}
	errs := make([]error, len(ip.violations))
	for i, v := range ip.violations {
		errs[i] = errors.New("sim: invariant violated: " + v)
	}
	return errors.Join(errs...)
}

// Observe implements Probe.
func (ip *invariantProbe) Observe(ev ProbeEvent) {
	if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) {
		ip.violate("%s event at non-finite time %v", ev.Kind, ev.Time)
		return
	}
	if ev.Time < -invariantTol {
		ip.violate("%s event at negative time %g", ev.Kind, ev.Time)
	}
	switch ev.Kind {
	case EventArrive:
		// Arrivals are monotone within the arrival stream but may trail
		// the engine clock: the open regime ingests lazily, stamping the
		// arrival's own (earlier) time.
		if ip.sawArrive && ev.Time+invariantTol < ip.lastArrive {
			ip.violate("arrival clock moved backwards: %g after %g", ev.Time, ip.lastArrive)
		}
		ip.sawArrive = true
		ip.lastArrive = math.Max(ip.lastArrive, ev.Time)
		if ev.Queue < 1 {
			ip.violate("arrive event with queue length %d (must include the request)", ev.Queue)
		}
	case EventService, EventRetry:
		// Service and retry events are stamped with the visit's future
		// end time at dispatch, so they only bound the clock from above.
		if ip.sawClock && ev.Time+invariantTol < ip.lastClock {
			ip.violate("%s event at %g before engine clock %g", ev.Kind, ev.Time, ip.lastClock)
		}
		ip.checkBreakdown(ev)
	default:
		// Dispatch, requeue, complete and the failover events all fire at
		// the engine's current event time: one collectively monotone clock.
		if ip.sawClock && ev.Time+invariantTol < ip.lastClock {
			ip.violate("engine clock moved backwards: %s at %g after %g", ev.Kind, ev.Time, ip.lastClock)
		}
		ip.sawClock = true
		ip.lastClock = math.Max(ip.lastClock, ev.Time)
		switch ev.Kind {
		case EventDispatch:
			if ev.Queue < 1 {
				ip.violate("dispatch event with queue length %d (must include the request)", ev.Queue)
			}
			ip.checkClass(ev)
		case EventRequeue:
			if ev.Queue < 1 {
				ip.violate("requeue event with queue length %d (must include the request)", ev.Queue)
			}
		case EventComplete:
			ip.checkClass(ev)
			ip.checkComplete(ev)
		}
	}
}

// checkClass validates the scheduling class of the event's request.
func (ip *invariantProbe) checkClass(ev ProbeEvent) {
	if ev.Req != nil && int(ev.Req.Class) >= core.NumClasses {
		ip.violate("%s event request with class %d out of range [0,%d)", ev.Kind, ev.Req.Class, core.NumClasses)
	}
}

// checkBreakdown validates one service visit's phase decomposition:
// finite, non-negative phases that reconcile with the visit's total.
func (ip *invariantProbe) checkBreakdown(ev ProbeEvent) {
	bd := ev.Breakdown
	phases := [...]struct {
		name string
		ms   float64
	}{
		{"seek", bd.Seek}, {"settle", bd.Settle}, {"turnaround", bd.Turnaround},
		{"transfer", bd.Transfer}, {"overhead", bd.Overhead}, {"recovery", bd.Recovery},
		{"service", bd.ServiceMs},
	}
	for _, ph := range phases {
		if math.IsNaN(ph.ms) || math.IsInf(ph.ms, 0) {
			ip.violate("%s event with non-finite %s time %v", ev.Kind, ph.name, ph.ms)
			return
		}
		if ph.ms < -invariantTol {
			ip.violate("%s event with negative %s time %g", ev.Kind, ph.name, ph.ms)
		}
	}
	// Reconciliation only applies to decomposing devices: a device that
	// reports no breakdown leaves its access unattributed (no mechanical
	// phase), which is valid, just uninformative, even when retries add
	// their attributed recovery penalties on top.
	if ev.Kind == EventService && bd.Positioning()+bd.Transfer+bd.Overhead > 0 {
		if resid := math.Abs(bd.Unattributed()); resid > invariantTol*(1+math.Abs(bd.ServiceMs)) {
			ip.violate("service breakdown does not reconcile: |%g| unattributed of %g ms service", bd.Unattributed(), bd.ServiceMs)
		}
	}
}

// checkComplete validates a finished request's stamps and tallies it
// for finishRun's conservation checks.
func (ip *invariantProbe) checkComplete(ev ProbeEvent) {
	ip.completes++
	if ev.Measured {
		ip.measured++
	}
	r := ev.Req
	if r == nil {
		ip.violate("complete event without a request")
		return
	}
	if r.Failed {
		ip.failed++
	}
	if r.Finish+invariantTol < r.Arrival {
		ip.violate("request finished at %g before its arrival %g", r.Finish, r.Arrival)
	}
	if r.Finish+invariantTol < r.Start {
		ip.violate("request finished at %g before its service start %g", r.Finish, r.Start)
	}
	if r.RecoveryMs < -invariantTol {
		ip.violate("request completed with negative recovery time %g", r.RecoveryMs)
	}
	if r.Retries < 0 || r.Requeues < 0 {
		ip.violate("request completed with negative retry/requeue counts %d/%d", r.Retries, r.Requeues)
	}
	sum := &ev.Breakdown
	for _, ph := range [...]float64{sum.Seek, sum.Settle, sum.Turnaround,
		sum.Transfer, sum.Overhead, sum.Recovery, sum.ServiceMs} {
		if ph < -invariantTol {
			ip.violate("request completed with negative accumulated phase time %g", ph)
		}
	}
}

// finishRun cross-checks the probe's tallies against the finalized
// Result: the measured completions it observed must be exactly the
// requests the statistics report, and failed completions must match the
// failure counter. Called by the engine's finalize.
func (ip *invariantProbe) finishRun(res *Result) {
	if ip.measured != res.Requests {
		ip.violate("probe saw %d measured completions but Result.Requests is %d", ip.measured, res.Requests)
	}
	if ip.failed != res.FailedRequests {
		ip.violate("probe saw %d failed completions but Result.FailedRequests is %d", ip.failed, res.FailedRequests)
	}
}
