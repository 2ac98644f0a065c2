package sched

import "memsim/internal/core"

// DefaultPromoteMs is the default age-promotion threshold for Priority:
// a request of any class that has waited this long is promoted to the
// most urgent band, bounding starvation no matter how busy the higher
// bands are. 50 ms is a handful of saturated-queue service quanta on
// either device model — long enough that rebuild chunks yield under
// load, short enough that they cannot be starved across a whole run.
const DefaultPromoteMs = 50

// NewPriority returns a Priority queue over core.AccessCost with the
// DefaultPromoteMs starvation bound.
func NewPriority() *SPTF {
	return NewPriorityWith(core.AccessCost, DefaultPromoteMs)
}

// NewPriorityWith returns "Priority": an SPTF with a class band. It
// services requests in strict class bands — degraded-read, then
// foreground, then rebuild — ordering within a band by the cost model.
// A degraded-mode read is already paying peer reconstruction on a
// user's critical path, so it preempts everything; rebuild chunks are
// background work whose only deadline is the vulnerability window, so
// they run when nothing else is pending.
//
// An age-based promotion threshold bounds starvation: any request that
// has waited at least promoteMs joins the most urgent band, so the
// worst-case queue delay of a rebuild chunk under sustained foreground
// load is promoteMs plus one band-drain, not unbounded. promoteMs ≤ 0
// disables promotion (strict bands, unbounded rebuild starvation). It
// panics on a nil model.
func NewPriorityWith(cost core.CostModel, promoteMs float64) *SPTF {
	s := NewCostSPTF("Priority", cost)
	s.band = func(r *core.Request, now float64) int {
		if promoteMs > 0 && now-r.Arrival >= promoteMs {
			return 0
		}
		switch r.Class {
		case core.ClassDegradedRead:
			return 0
		case core.ClassRebuild:
			return 2
		default:
			return 1
		}
	}
	return s
}
