package sched

import (
	"fmt"

	"memsim/internal/core"
)

// NewASPTF returns aged shortest-positioning-time-first: an SPTF queue
// whose cost model discounts each pending request's positioning
// estimate by how long it has waited,
//
//	effective(r) = EstimateAccess(r) − weight · (now − r.Arrival)
//
// (Jacobson & Wilkes' aged variants). The weight is the aging
// coefficient: ms of positioning time forgiven per ms of queue wait. 0
// is pure SPTF; large values approach FCFS. Pure SPTF's greediness
// starves distant requests — our Fig. 6 reproduction shows its σ²/µ²
// exploding right at the saturation knee, the regime where the paper
// observed SPTF's "odd behavior" — and a small aging weight trades a
// little mean response for bounded tails. ASPTF is an extension; the
// paper's figures use the four classic algorithms. It panics on
// negative weights.
func NewASPTF(weight float64) *SPTF {
	if weight < 0 {
		panic(fmt.Sprintf("sched: negative ASPTF weight %g", weight))
	}
	aged := func(d core.Device, r *core.Request, now float64) float64 {
		return core.AccessCost(d, r, now) - weight*(now-r.Arrival)
	}
	s := NewCostSPTF(fmt.Sprintf("ASPTF(%g)", weight), aged)
	// The same discount applied to core.AccessCostBound bounds aged:
	// float subtraction of the same amount is monotone.
	s.bound = func(d core.Device, r *core.Request, now float64) float64 {
		return core.AccessCostBound(d, r, now) - weight*(now-r.Arrival)
	}
	return s
}
