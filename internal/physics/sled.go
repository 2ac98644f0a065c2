// Package physics models the mechanics of a MEMS media sled: a
// spring-mounted mass pulled by electrostatic comb actuators, as described
// in §2 of Griffin et al. (CMU-CS-00-136) and the companion modeling paper
// (Griffin/Schlosser/Ganger/Nagle, SIGMETRICS 2000).
//
// The sled obeys
//
//	ẍ = u·a − ω²·x,   u ∈ {−1, +1}
//
// where a is the actuator acceleration and the linear spring term reaches
// springFactor·a at ±halfRange (so ω² = springFactor·a/halfRange). Seeks
// are time-optimal bang-bang maneuvers: full acceleration toward the
// target followed by full deceleration. Because each control phase is a
// constant-force harmonic oscillator, the state traces a circle in
// (x, v/ω) phase space and the switch point can be found in closed form as
// the intersection of two circles — no numerical integration is needed on
// the simulation fast path.
//
// All quantities use SI units (meters, seconds); callers convert to the
// simulator's milliseconds at the device layer.
package physics

import (
	"fmt"
	"math"
)

// Sled describes the mechanical parameters of a media sled axis. The same
// parameters are used for the X (cross-track) and Y (along-track) axes.
// A Sled is immutable; NewSled builds one.
type Sled struct {
	// accel is the acceleration applied by the actuators, m/s²
	// (803.6 m/s² in the paper's Table 1).
	accel float64

	// springFactor is the fraction of accel exerted by the spring
	// suspension at full displacement (±halfRange). The paper uses 75%.
	// Zero disables the spring term.
	springFactor float64

	// halfRange is the maximum sled displacement from center, in meters.
	// The paper's 100 µm total mobility gives 50 µm.
	halfRange float64

	// w is the oscillator's angular frequency ω and k its equilibrium
	// offset a/ω², the constants of every seek solve; both are zero
	// without a spring.
	w, k float64
}

// NewSled returns the sled with actuator acceleration accel (m/s²), a
// spring pulling springFactor·accel at full displacement (zero for no
// spring) and travel ±halfRange (m). It derives ω and a/ω² once, with
// the expressions each solve used to evaluate, so plans keep their bits.
func NewSled(accel, springFactor, halfRange float64) *Sled {
	s := &Sled{accel: accel, springFactor: springFactor, halfRange: halfRange}
	if springFactor != 0 {
		s.w = math.Sqrt(springFactor * accel / halfRange)
		s.k = accel / (s.w * s.w)
	}
	return s
}

// Omega returns the angular frequency ω of the constant-force oscillator
// induced by the spring, in rad/s. It is zero when the sled has no spring
// term.
func (s *Sled) Omega() float64 { return s.w }

// Plan is a two-phase bang-bang control plan: apply control U1 (±1) for T1
// seconds, then U2 for T2 seconds.
type Plan struct {
	U1 int
	T1 float64
	U2 int
	T2 float64
}

// Total returns the plan's total duration in seconds.
func (p Plan) Total() float64 { return p.T1 + p.T2 }

const twoPi = 2 * math.Pi

// angleCW returns the clockwise angular distance from angle `from` to
// angle `to`, in [0, 2π). math.Mod returns its argument unchanged when
// |from−to| < 2π, so it runs only at or beyond that; two atan2 angles
// get there only as ±π.
func angleCW(from, to float64) float64 {
	d := from - to
	if d >= twoPi || d <= -twoPi {
		d = math.Mod(d, twoPi)
	}
	if d < 0 {
		d += twoPi
	}
	return d
}

// hypot is math.Hypot(p, q), skipping the library call at rest (q = 0),
// where math.Hypot returns |p| exactly: max·sqrt(1+0²) = |p|.
func hypot(p, q float64) float64 {
	if q == 0 {
		return math.Abs(p)
	}
	return math.Hypot(p, q)
}

// atan2 is math.Atan2(y, x), answering its y = ±0 case in place, as the
// library does after its NaN test: ±0 for x ≥ +0, else ±π, with y's
// sign. Every rest endpoint (q = 0) and tangent switch point (ws = 0)
// takes it.
func atan2(y, x float64) float64 {
	if y == 0 && x == x {
		if x >= 0 && !math.Signbit(x) {
			return y
		}
		return math.Copysign(math.Pi, y)
	}
	return math.Atan2(y, x)
}

// negAtan2 returns math.Atan2(−y, x) given th = math.Atan2(y, x). Go's
// atan2 is odd in y — atan is odd and its ±π quadrant fix is
// sign-symmetric — so the result is −th bit for bit, except when y/x
// rounds to ±0 with x < 0: atan2 then returns π for both signs of y. The
// angles 0 and ±π are therefore solved again.
func negAtan2(th, y, x float64) float64 {
	if th == 0 || th == math.Pi || th == -math.Pi {
		return math.Atan2(-y, x)
	}
	return -th
}

// SeekPlan computes the time-optimal two-phase bang-bang plan moving the
// sled from state (x0, v0) to state (x1, v1). The boolean result reports
// whether a two-phase plan exists; for the parameter ranges of MEMS-based
// storage devices (springFactor < 1, so the travel lies inside the
// equilibrium offsets ±a/ω²) it always does, but callers must handle
// false (SeekTime falls back to a composed maneuver through an
// intermediate rest state).
func (s *Sled) SeekPlan(x0, v0, x1, v1 float64) (Plan, bool) {
	if x0 == x1 && v0 == v1 {
		return Plan{U1: 1, U2: -1}, true
	}
	if s.w == 0 {
		return s.seekPlanNoSpring(x0, v0, x1, v1)
	}
	return s.seekPlanSpring(x0, v0, x1, v1)
}

// seekPlanNoSpring solves the classical double-integrator minimum-time
// problem (ẍ = ±a).
func (s *Sled) seekPlanNoSpring(x0, v0, x1, v1 float64) (Plan, bool) {
	a := s.accel
	best := Plan{}
	found := false
	// Strategy +a then −a: peak velocity vs ≥ max(v0, v1).
	if vs2 := (v0*v0+v1*v1)/2 + a*(x1-x0); vs2 >= 0 {
		vs := math.Sqrt(vs2)
		t1 := (vs - v0) / a
		t2 := (vs - v1) / a
		if t1 >= -1e-15 && t2 >= -1e-15 {
			best = Plan{U1: 1, T1: math.Max(t1, 0), U2: -1, T2: math.Max(t2, 0)}
			found = true
		}
	}
	// Strategy −a then +a: valley velocity vs ≤ min(v0, v1).
	if vs2 := (v0*v0+v1*v1)/2 - a*(x1-x0); vs2 >= 0 {
		vs := -math.Sqrt(vs2)
		t1 := (v0 - vs) / a
		t2 := (v1 - vs) / a
		if t1 >= -1e-15 && t2 >= -1e-15 {
			p := Plan{U1: -1, T1: math.Max(t1, 0), U2: 1, T2: math.Max(t2, 0)}
			if !found || p.Total() < best.Total() {
				best = p
				found = true
			}
		}
	}
	return best, found
}

// seekPlanSpring solves the minimum-time problem for the constant-force
// harmonic oscillator by intersecting the phase-space circles of the two
// control phases: the strategy that first applies +a and the one that
// first applies −a, each solved by strategy.
//
// A rest-to-rest move (v0 = v1 = +0, every X seek) solves only the
// strategy that first accelerates toward the target, and only its
// intersection the sled reaches first (restPlan), when both ends lie
// strictly inside the offsets ±k and δ = |x1 − x0| ≥ k/4096. For
// x1 > x0 (the other case mirrors) the skipped strategy's circles lie
// about −k and +k with radii p = k + x0 and q = k − x1, so they miss by
// δ, and their squared half-chord is
//
//	ws2 = −δ(4k − δ)(δ + 2p)(δ + 2q)/(16k²),
//
// whose last two factors multiply to 4kδ − δ² + 4pq ≥ δ(4k − δ). So
// for δ ≤ k, ws2 ≤ −(9/16)δ², which δ ≥ k/4096 puts below −3.3e-8·k²,
// and for δ > k, ws2 ≤ −k²/4.
// The rejection threshold −1e-9·r1², with r1 = p < 2k, lies above
// −4e-9·k², and rounding moves ws2's few terms by about 1e-15·k², so
// that strategy would always exit at its ws2 test and the plan is the
// same bit for bit. Any other state solves both strategies.
func (s *Sled) seekPlanSpring(x0, v0, x1, v1 float64) (Plan, bool) {
	k := s.k
	if math.Float64bits(v0)|math.Float64bits(v1) == 0 &&
		math.Abs(x0) < k && math.Abs(x1) < k && math.Abs(x1-x0)*4096 >= k {
		u := 1
		if x1 < x0 {
			u = -1
		}
		return s.restPlan(u, x0, x1), true
	}
	q0, q1 := v0/s.w, v1/s.w
	best, found := s.strategy(1, x0, q0, x1, q1, Plan{}, false)
	return s.strategy(-1, x0, q0, x1, q1, best, found)
}

// restPlan is strategy(u, x0, 0, x1, 0) under seekPlanSpring's
// rest-to-rest conditions, solved at the one intersection that wins:
// (xs, u·ws), the one the sled reaches first. Take u = +1, x0 < x1 (the
// other case mirrors through x → −x). The circles lie about +k with
// radius k − x0 and about −k with radius k + x1, so every point of the
// first has x ≥ x0 and every point of the second x ≤ x1, and
// x0 < xs < x1 inside (−k, k). By Heron's formula over the triangle of
// the two centers and an intersection,
//
//	ws2 = (4k + δ)·δ·(2A + δ)(2B + δ)/(16k²),  A = k − x1, B = k + x0,
//
// and (2A + δ)(2B + δ) = 4AB + 4kδ − δ² ≥ δ(4k − δ), so
// ws2 ≥ δ²(1 − δ²/16k²) > (3/4)δ² as δ < 2k: ws ≥ (√3/2)δ, far above
// the tangent test. The start sits at angle π on the first circle and
// the target at 0 on the second; motion is clockwise. With θ1 =
// atan2(ws, xs − k) ∈ (π/2, π) and θ2 = atan2(ws, xs + k) ∈ (0, π/2),
// the +ws plan takes (π − θ1)/ω then θ2/ω, under π/ω in all, while the
// −ws plan takes (π + θ1)/ω then (2π − θ2)/ω, over 3π/(2ω) even if
// either phase were snapped to 0. Neither is: π − θ1 and θ2 are both
// atan of ws over at most 2k, at least atan(√3/16384) ≈ 1e-4, so no
// phase comes within the 1e-9 snap of a full turn, and the +ws plan
// wins strategy's comparison. For u = −1 the start sits at angle 0,
// the reached intersection is (xs, −ws) and the angles are the same
// ones negated; atan2(−ws, ·) is the value strategy's negAtan2 returns
// there, the reference's own call. The terms evaluate as in strategy,
// so the plan is the same bit for bit.
func (s *Sled) restPlan(u int, x0, x1 float64) Plan {
	c1 := float64(u) * s.k
	c2 := -c1
	r1 := math.Abs(x0 - c1)
	r2 := math.Abs(x1 - c2)
	denom := 2 * (c2 - c1)
	xs := (r1*r1 - r2*r2 - c1*c1 + c2*c2) / denom
	ys := float64(u) * math.Sqrt(r1*r1-(xs-c1)*(xs-c1))
	t1 := angleCW(atan2(0, x0-c1), atan2(ys, xs-c1)) / s.w
	t2 := angleCW(atan2(ys, xs-c2), atan2(0, x1-c2)) / s.w
	return Plan{U1: u, T1: t1, U2: -u, T2: t2}
}

// strategy solves the strategy that applies control u for the first
// phase and −u for the second, from (x0, q0) to (x1, q1) in (x, v/ω)
// coordinates, and returns the faster of its plans and best (when
// found), best on a tie; it returns best and found unchanged when its
// circles do not meet.
//
// Each distinct term is evaluated once, by identities that are exact in
// IEEE arithmetic, so the plan is bit-identical to evaluating every term
// per branch: the equilibrium offsets ±a/ω² differ only in sign (IEEE
// division is sign-symmetric); the two intersections (xs, ±ws) share
// their angles up to sign (negAtan2); hypot, atan2 and angleCW skip
// library calls whose result is known.
func (s *Sled) strategy(u int, x0, q0, x1, q1 float64, best Plan, found bool) (Plan, bool) {
	w := s.w
	// Circle 1 carries the start state, circle 2 the target state, both
	// in (x, v/ω) coordinates where motion is clockwise at ω.
	c1 := float64(u) * s.k
	c2 := -c1
	r1 := hypot(x0-c1, q0)
	r2 := hypot(x1-c2, q1)
	// Intersection abscissa from subtracting the circle equations.
	denom := 2 * (c2 - c1)
	xs := (r1*r1 - r2*r2 - c1*c1 + c2*c2) / denom
	ws2 := r1*r1 - (xs-c1)*(xs-c1)
	if ws2 < 0 {
		if ws2 > -1e-9*r1*r1 {
			ws2 = 0 // tangent circles within floating-point noise
		} else {
			return best, found // this strategy cannot reach the target
		}
	}
	ws := math.Sqrt(ws2)
	th0 := atan2(q0, x0-c1)
	tht := atan2(q1, x1-c2)
	thS1 := atan2(ws, xs-c1)
	thS2 := atan2(ws, xs-c2)
	for i := 0; i < 2; i++ {
		if i == 1 {
			if ws == 0 {
				break // ±0 are the same intersection
			}
			thS1 = negAtan2(thS1, ws, xs-c1)
			thS2 = negAtan2(thS2, ws, xs-c2)
		}
		t1 := angleCW(th0, thS1) / w
		t2 := angleCW(thS2, tht) / w
		// Snap near-full-circle phases caused by floating-point noise
		// when the start or target coincides with the switch point.
		if twoPi-t1*w < 1e-9 {
			t1 = 0
		}
		if twoPi-t2*w < 1e-9 {
			t2 = 0
		}
		p := Plan{U1: u, T1: t1, U2: -u, T2: t2}
		if !found || p.Total() < best.Total() {
			best = p
			found = true
		}
	}
	return best, found
}

// SeekTime returns the minimum time, in seconds, to move the sled from
// state (x0, v0) to state (x1, v1). If no direct two-phase plan exists the
// maneuver is composed of two rest-to-rest seeks through the midpoint;
// this fallback is unreachable for the paper's device parameters but keeps
// the model total for arbitrary configurations.
func (s *Sled) SeekTime(x0, v0, x1, v1 float64) float64 {
	if p, ok := s.SeekPlan(x0, v0, x1, v1); ok {
		return p.Total()
	}
	// Compose: stop, seek to midpoint at rest, then proceed. Each leg is
	// a strictly easier problem (rest endpoints shrink the circles).
	mid := (x0 + x1) / 2
	t := s.SeekTime(x0, v0, mid, 0)
	return t + s.SeekTime(mid, 0, x1, v1)
}

// TurnaroundTime returns the time, in seconds, to reverse the sled's
// velocity from v to −v at position y: the "turnaround" of §2.3, used
// between track switches and for repeated access to the same sector. The
// spring restoring force makes this a function of both position and
// direction of motion (§2.4.4).
func (s *Sled) TurnaroundTime(y, v float64) float64 {
	return s.SeekTime(y, v, y, -v)
}

// Evolve advances state (x, v) under constant control u for t seconds and
// returns the new state. This is the exact closed-form solution used by
// SeekPlan; it is exported so device models and tests can reconstruct
// trajectories.
func (s *Sled) Evolve(x, v float64, u int, t float64) (x2, v2 float64) {
	w := s.w
	ua := float64(u) * s.accel
	if w == 0 {
		return x + v*t + 0.5*ua*t*t, v + ua*t
	}
	c := ua / (w * w)
	dx := x - c
	sin, cos := math.Sincos(w * t)
	return c + dx*cos + v/w*sin, -dx*w*sin + v*cos
}

// Apply runs plan p from state (x, v) using the closed-form evolution and
// returns the final state. Tests use it to verify that plans reach their
// targets.
func (s *Sled) Apply(x, v float64, p Plan) (x2, v2 float64) {
	x, v = s.Evolve(x, v, p.U1, p.T1)
	return s.Evolve(x, v, p.U2, p.T2)
}

// String implements fmt.Stringer for diagnostics.
func (p Plan) String() string {
	return fmt.Sprintf("plan{u=%+d %.3gs, u=%+d %.3gs}", p.U1, p.T1, p.U2, p.T2)
}
