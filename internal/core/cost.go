package core

import "fmt"

// Class tags a request with the role it plays in the system, so
// class-aware schedulers can order a volume member's queue by urgency
// rather than position alone: a degraded-mode read is already paying a
// reconstruction penalty and sits on a user's critical path, while a
// rebuild chunk is background work that only bounds the vulnerability
// window. Requests default to Foreground; the volume layer tags member
// ops as it forks them.
type Class uint8

const (
	// ClassForeground is ordinary user work (the default zero value).
	ClassForeground Class = iota
	// ClassDegradedRead is a foreground read served in degraded mode
	// (peer reconstruction or covered-spare redirect) — the latency the
	// paper's failover path is trying to bound.
	ClassDegradedRead
	// ClassRebuild is background rebuild traffic (chunk reads/writes).
	ClassRebuild

	// NumClasses sizes per-class accounting arrays.
	NumClasses = int(ClassRebuild) + 1
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassForeground:
		return "foreground"
	case ClassDegradedRead:
		return "degraded-read"
	case ClassRebuild:
		return "rebuild"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// CostModel scores a candidate request for dispatch at time now: lower
// is better. Schedulers built on a cost model (SPTF and its variants)
// take one at construction instead of hard-wiring d.EstimateAccess, so
// new policies plug in a scoring function rather than a new queue type.
// Implementations must not mutate device or request state.
type CostModel func(d Device, r *Request, now float64) float64

// AccessCost is the default cost model: the device's own estimate of
// the full service time, exactly what classical SPTF greedily minimizes.
func AccessCost(d Device, r *Request, now float64) float64 {
	return d.EstimateAccess(r, now)
}

// SettleAwareCost discounts the settle phase from the estimate. Settle
// is the unschedulable floor of MEMS positioning — every access pays it
// regardless of queue order — so ranking candidates by (service − settle)
// breaks ties on the seek work scheduling can actually avoid. For
// devices that cannot estimate a breakdown it degrades to AccessCost.
func SettleAwareCost(d Device, r *Request, now float64) float64 {
	bd, ok := TryEstimateBreakdown(d, r, now)
	if !ok {
		return d.EstimateAccess(r, now)
	}
	return bd.ServiceMs - bd.Settle
}

// BoundKey is the state-independent half of a request's lower bound: a
// LowerBounder computes it once per queued request, so pricing the
// bound at each dispatch is left with only the part that depends on the
// device's mechanical state. Cyl, Row and EndRow are a position the
// device defines (for MEMS: the first segment's cylinder, first row and
// end row boundary); Fixed is the time the request costs wherever the
// device starts (for MEMS: its summed transfer).
type BoundKey struct {
	Cyl, Row, EndRow int32
	Fixed            float64
}

// LowerBounder is implemented by device models that can bound an
// estimate from below far more cheaply than computing it, in two steps:
// BoundKey once per request, LowerBound once per dispatch. A key may
// depend only on the request's LBN and Blocks and on the device's
// immutable configuration, never on its mechanical state or the time,
// so a key computed while the request waits stays valid until it is
// dispatched. LowerBound(BoundKey(req), now) must never exceed
// EstimateAccess(req, now) — bit for bit, with no tolerance — and
// no method may change device or request state. Cost-model
// schedulers use the bound to skip candidates that cannot beat the best
// estimate found so far, so a bound that is ever too high changes which
// request they pick.
//
// KeyCyl and Floor bound the bounds of a whole key cylinder, so a deep
// queue can be scanned outward from the device's position and stop
// early. Key cylinders are non-negative, and KeyCyl is the key cylinder
// (BoundKey.Cyl) the device is positioned at. Floor(c, now) must not
// exceed LowerBound(&k, now) for any key k with k.Cyl == c, bit for
// bit, and must never decrease as c moves away from KeyCyl on either
// side.
type LowerBounder interface {
	BoundKey(req *Request) BoundKey
	LowerBound(k *BoundKey, now float64) float64
	KeyCyl() int32
	Floor(c int32, now float64) float64
}

// BoundModel is a lower bound on a CostModel, evaluated from the key lb
// made for r: never above the cost model for the same device, request
// and time, bit for bit. Schedulers call it only for devices that
// implement LowerBounder; every other device's bound is −Inf.
type BoundModel func(lb LowerBounder, k *BoundKey, r *Request, now float64) float64

// AccessCostBound is the BoundModel that pairs with AccessCost: the
// device's own LowerBound.
func AccessCostBound(lb LowerBounder, k *BoundKey, _ *Request, now float64) float64 {
	return lb.LowerBound(k, now)
}

// BreakdownEstimator is implemented by device models that can estimate
// the per-phase decomposition of a prospective access without changing
// device state — the estimation-side counterpart of BreakdownReporter.
// The returned Breakdown's ServiceMs must equal EstimateAccess for the
// same request and time (tests enforce ≤1e-9).
type BreakdownEstimator interface {
	EstimateBreakdown(req *Request, now float64) Breakdown
}

// EstimateBreakdown returns the estimated per-phase decomposition of
// serving req on d at time now, without changing device state. Devices
// that do not implement BreakdownEstimator report their scalar estimate
// as an undecomposed ServiceMs, so callers always get a usable total.
func EstimateBreakdown(d Device, req *Request, now float64) Breakdown {
	if bd, ok := TryEstimateBreakdown(d, req, now); ok {
		return bd
	}
	return Breakdown{ServiceMs: d.EstimateAccess(req, now)}
}

// TryEstimateBreakdown is EstimateBreakdown without the scalar
// fallback: ok is false when d cannot decompose its estimate.
func TryEstimateBreakdown(d Device, req *Request, now float64) (Breakdown, bool) {
	if be, ok := d.(BreakdownEstimator); ok {
		return be.EstimateBreakdown(req, now), true
	}
	return Breakdown{}, false
}
