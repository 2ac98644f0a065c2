package physics

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

// paperSled returns a sled with the default parameters of Table 1 of the
// paper: 803.6 m/s² acceleration, 75% spring factor, ±50 µm travel.
func paperSled() *Sled {
	return NewSled(803.6, 0.75, 50e-6)
}

func noSpringSled() *Sled {
	return NewSled(803.6, 0, 50e-6)
}

const accessSpeed = 0.028 // m/s, 700 Kbit/s at 40 nm per bit

func TestOmega(t *testing.T) {
	s := paperSled()
	want := math.Sqrt(0.75 * 803.6 / 50e-6)
	if got := s.Omega(); math.Abs(got-want) > 1e-9 {
		t.Errorf("Omega = %g, want %g", got, want)
	}
	if got := noSpringSled().Omega(); got != 0 {
		t.Errorf("no-spring Omega = %g, want 0", got)
	}
}

func TestZeroSeek(t *testing.T) {
	for _, s := range []*Sled{paperSled(), noSpringSled()} {
		if got := s.SeekTime(10e-6, 0.01, 10e-6, 0.01); got != 0 {
			t.Errorf("identical states should take 0 time, got %g", got)
		}
	}
}

func TestNoSpringRestToRest(t *testing.T) {
	// Without a spring, a rest-to-rest seek of distance d takes 2·sqrt(d/a).
	s := noSpringSled()
	for _, d := range []float64{1e-6, 10e-6, 50e-6, 100e-6} {
		want := 2 * math.Sqrt(d/s.accel)
		if got := s.SeekTime(0, 0, d, 0); math.Abs(got-want) > 1e-12 {
			t.Errorf("d=%g: seek=%g, want %g", d, got, want)
		}
		// Symmetric in direction.
		if got := s.SeekTime(0, 0, -d, 0); math.Abs(got-want) > 1e-12 {
			t.Errorf("d=-%g: seek=%g, want %g", d, got, want)
		}
	}
}

func TestNoSpringTurnaround(t *testing.T) {
	// Without a spring, reversing velocity v takes exactly 2v/a anywhere.
	s := noSpringSled()
	want := 2 * accessSpeed / s.accel
	for _, y := range []float64{-50e-6, 0, 30e-6} {
		if got := s.TurnaroundTime(y, accessSpeed); math.Abs(got-want) > 1e-12 {
			t.Errorf("turnaround at y=%g: %g, want %g", y, got, want)
		}
	}
}

func TestSpringTurnaroundAtCenter(t *testing.T) {
	// At the sled center the spring force is negligible over the tiny
	// turnaround excursion (~0.5 nm), so the time approaches 2v/a
	// ≈ 0.0697 ms — the paper's "0.063 ms average" regime (Table 2 note).
	s := paperSled()
	got := s.TurnaroundTime(0, accessSpeed)
	want := 2 * accessSpeed / s.accel
	if math.Abs(got-want) > want*0.01 {
		t.Errorf("center turnaround = %g s, want ≈ %g s", got, want)
	}
}

func TestSpringTurnaroundAsymmetry(t *testing.T) {
	// §2.4.4: turnarounds near the edges take either less time or more,
	// depending on the direction of sled motion. At +edge, reversing
	// outward motion (spring assists both phases) must beat reversing
	// inward motion (spring opposes), and the center case sits between.
	s := paperSled()
	edge := s.halfRange
	assisted := s.TurnaroundTime(edge, accessSpeed) // moving outward, turn back
	opposed := s.TurnaroundTime(edge, -accessSpeed) // moving inward, turn out
	center := s.TurnaroundTime(0, accessSpeed)
	if !(assisted < center && center < opposed) {
		t.Errorf("want assisted < center < opposed, got %g, %g, %g",
			assisted, center, opposed)
	}
	// Effective acceleration at the edge is (1±0.75)·a, so the ratio of
	// opposed to assisted turnaround should be near (1.75/0.25) = 7 for
	// these tiny excursions.
	ratio := opposed / assisted
	if ratio < 5 || ratio > 9 {
		t.Errorf("opposed/assisted ratio = %g, want ≈ 7", ratio)
	}
}

func TestSpringEdgeSeeksSlower(t *testing.T) {
	// §5.1 / Fig. 9: short seeks near the edges take longer than the same
	// seeks near the center, because the springs reduce the effective
	// actuator force there.
	s := paperSled()
	d := 8e-6 // an 8 µm hop
	center := s.SeekTime(-d/2, 0, d/2, 0)
	edgeOut := s.SeekTime(s.halfRange-d, 0, s.halfRange, 0)
	if edgeOut <= center {
		t.Errorf("edge seek (%g) should be slower than center seek (%g)", edgeOut, center)
	}
}

func TestFullStrokeSeekTime(t *testing.T) {
	// Full-stroke rest-to-rest with the spring assisting both the launch
	// (from −edge) and the arrival (into +edge) should be faster than the
	// springless 2·sqrt(d/a) time, and in the ballpark derived in
	// DESIGN.md (≈ 0.55 ms vs 0.71 ms).
	s := paperSled()
	d := 2 * s.halfRange
	withSpring := s.SeekTime(-s.halfRange, 0, s.halfRange, 0)
	noSpring := 2 * math.Sqrt(d/s.accel)
	if withSpring >= noSpring {
		t.Errorf("spring-assisted full stroke %g should beat %g", withSpring, noSpring)
	}
	if withSpring < 0.4e-3 || withSpring > 0.7e-3 {
		t.Errorf("full stroke = %g s, expected ≈ 0.55 ms", withSpring)
	}
}

func TestPlanReachesTargetClosedForm(t *testing.T) {
	// Property: applying the plan with the exact evolution lands on the
	// target state.
	s := paperSled()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		x0 := (rng.Float64()*2 - 1) * s.halfRange
		x1 := (rng.Float64()*2 - 1) * s.halfRange
		v0 := (rng.Float64()*2 - 1) * 5 * accessSpeed
		v1 := (rng.Float64()*2 - 1) * 5 * accessSpeed
		p, ok := s.SeekPlan(x0, v0, x1, v1)
		if !ok {
			t.Fatalf("no plan for (%g,%g)→(%g,%g)", x0, v0, x1, v1)
		}
		xf, vf := s.Apply(x0, v0, p)
		if math.Abs(xf-x1) > 1e-9 || math.Abs(vf-v1) > 1e-6 {
			t.Fatalf("plan %v misses target: (%g,%g)→(%g,%g), got (%g,%g)",
				p, x0, v0, x1, v1, xf, vf)
		}
	}
}

func TestPlanReachesTargetRK4(t *testing.T) {
	// Cross-validate the closed-form oscillator solution against a dumb
	// RK4 integration of the same ODE.
	for _, s := range []*Sled{paperSled(), noSpringSled()} {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 200; i++ {
			x0 := (rng.Float64()*2 - 1) * s.halfRange
			x1 := (rng.Float64()*2 - 1) * s.halfRange
			v0 := (rng.Float64()*2 - 1) * 3 * accessSpeed
			v1 := (rng.Float64()*2 - 1) * 3 * accessSpeed
			p, ok := s.SeekPlan(x0, v0, x1, v1)
			if !ok {
				t.Fatalf("no plan for (%g,%g)→(%g,%g)", x0, v0, x1, v1)
			}
			xf, vf := s.Integrate(x0, v0, p, 1e-7)
			if math.Abs(xf-x1) > 5e-9 || math.Abs(vf-v1) > 5e-5 {
				t.Fatalf("RK4 disagrees for plan %v: want (%g,%g), got (%g,%g)",
					p, x1, v1, xf, vf)
			}
		}
	}
}

func TestSeekTimeNonNegativeAndSymmetric(t *testing.T) {
	s := paperSled()
	f := func(a, b int16) bool {
		x0 := float64(a) / math.MaxInt16 * s.halfRange
		x1 := float64(b) / math.MaxInt16 * s.halfRange
		t1 := s.SeekTime(x0, 0, x1, 0)
		t2 := s.SeekTime(-x0, 0, -x1, 0) // mirror symmetry of the spring
		t3 := s.SeekTime(x1, 0, x0, 0)   // reversal symmetry at rest
		return t1 >= 0 && math.Abs(t1-t2) < 1e-12 && math.Abs(t1-t3) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSeekTimeMonotonicInDistanceFromCenter(t *testing.T) {
	// From rest at center, seeking farther should never be faster.
	s := paperSled()
	prev := 0.0
	for d := 0.0; d <= s.halfRange; d += s.halfRange / 200 {
		cur := s.SeekTime(0, 0, d, 0)
		if cur+1e-12 < prev {
			t.Fatalf("seek time decreased: d=%g t=%g prev=%g", d, cur, prev)
		}
		prev = cur
	}
}

func TestEvolveMatchesIntegrate(t *testing.T) {
	s := paperSled()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		x := (rng.Float64()*2 - 1) * s.halfRange
		v := (rng.Float64()*2 - 1) * 0.1
		u := 1
		if rng.Intn(2) == 0 {
			u = -1
		}
		dt := rng.Float64() * 5e-4
		x1, v1 := s.Evolve(x, v, u, dt)
		x2, v2 := s.integratePhase(x, v, u, dt, 1e-7)
		if math.Abs(x1-x2) > 1e-9 || math.Abs(v1-v2) > 1e-5 {
			t.Fatalf("evolve (%g,%g) vs RK4 (%g,%g)", x1, v1, x2, v2)
		}
	}
}

func TestSeekFallbackComposition(t *testing.T) {
	// Even when forced through the composed fallback path (which needs no
	// direct two-phase plan), SeekTime must terminate and be positive.
	// With the paper parameters every random case has a direct plan, so
	// exercise the fallback arithmetic directly via the midpoint identity.
	s := paperSled()
	x0, x1 := -40e-6, 40e-6
	direct := s.SeekTime(x0, 0, x1, 0)
	viaMid := s.SeekTime(x0, 0, 0, 0) + s.SeekTime(0, 0, x1, 0)
	if direct > viaMid+1e-12 {
		t.Errorf("direct seek (%g) should not exceed stop-at-midpoint (%g)", direct, viaMid)
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{U1: 1, T1: 0.001, U2: -1, T2: 0.002}
	if p.String() == "" {
		t.Error("empty String()")
	}
}

func BenchmarkSeekSolverClosedForm(b *testing.B) {
	s := paperSled()
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = (rng.Float64()*2 - 1) * s.halfRange
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.SeekTime(xs[i%1024], 0, xs[(i+7)%1024], 0)
	}
}

// BenchmarkSeekSolverRestToRest splits BenchmarkSeekSolverClosedForm's
// rest-to-rest seeks by direction: the rightward row moves toward +x,
// where the plan accelerates with u = +1 and takes the +ws
// intersection, and the leftward row toward −x (u = −1, −ws). Each
// seek spans at least k/4096, the fast path's least gap, as the X seeks
// between distinct gen1 cylinders do.
func BenchmarkSeekSolverRestToRest(b *testing.B) {
	s := paperSled()
	for _, dir := range []struct {
		name string
		sign float64
	}{{"leftward", -1}, {"rightward", 1}} {
		b.Run(dir.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			type seek struct{ x0, x1 float64 }
			seeks := make([]seek, 1024)
			for i := range seeks {
				x0, x1 := (rng.Float64()*2-1)*s.halfRange, (rng.Float64()*2-1)*s.halfRange
				for math.Abs(x1-x0)*4096 < s.k {
					x1 = (rng.Float64()*2 - 1) * s.halfRange
				}
				if (x1-x0)*dir.sign < 0 {
					x0, x1 = x1, x0
				}
				seeks[i] = seek{x0, x1}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sk := seeks[i%1024]
				_ = s.SeekTime(sk.x0, 0, sk.x1, 0)
			}
		})
	}
}

// BenchmarkSeekSolverMovingY prices the Y seeks an access solves off
// the row-boundary table: from a gen1 row boundary moving at ±access
// speed to another, arriving at ±access speed.
func BenchmarkSeekSolverMovingY(b *testing.B) {
	s := paperSled()
	ax := sledAxes[0]
	rng := rand.New(rand.NewSource(1))
	type yState struct{ y, v float64 }
	st := make([]yState, 1024)
	for i := range st {
		st[i] = yState{ax.yPos(float64(rng.Intn(ax.bits/90+1) * 90)), accessSpeed}
		if rng.Intn(2) == 0 {
			st[i].v = -accessSpeed
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from, to := st[i%1024], st[(i+7)%1024]
		_ = s.SeekTime(from.y, from.v, to.y, to.v)
	}
}

func BenchmarkSeekSolverRK4Reference(b *testing.B) {
	// Ablation partner for BenchmarkSeekSolverClosedForm: the cost of
	// verifying one plan by numerical integration at 0.1 µs steps.
	s := paperSled()
	p, _ := s.SeekPlan(-40e-6, 0, 40e-6, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Integrate(-40e-6, 0, p, 1e-7)
	}
}

// Integrate is a reference RK4 integrator for the sled ODE under plan p,
// stepping at dt. It cross-validates the closed-form solution; the
// simulator never integrates.
func (s *Sled) Integrate(x, v float64, p Plan, dt float64) (x2, v2 float64) {
	x, v = s.integratePhase(x, v, p.U1, p.T1, dt)
	return s.integratePhase(x, v, p.U2, p.T2, dt)
}

func (s *Sled) integratePhase(x, v float64, u int, t, dt float64) (float64, float64) {
	w2 := 0.0
	if s.springFactor != 0 {
		w2 = s.springFactor * s.accel / s.halfRange
	}
	acc := func(x, v float64) float64 { return float64(u)*s.accel - w2*x }
	for t > 0 {
		h := dt
		if h > t {
			h = t
		}
		// Classical RK4 on the system (ẋ = v, v̇ = acc).
		k1x, k1v := v, acc(x, v)
		k2x, k2v := v+h/2*k1v, acc(x+h/2*k1x, v+h/2*k1v)
		k3x, k3v := v+h/2*k2v, acc(x+h/2*k2x, v+h/2*k2v)
		k4x, k4v := v+h*k3v, acc(x+h*k3x, v+h*k3v)
		x += h / 6 * (k1x + 2*k2x + 2*k3x + k4x)
		v += h / 6 * (k1v + 2*k2v + 2*k3v + k4v)
		t -= h
	}
	return x, v
}

// seekPlanRef and seekPlanSpringRef are the solver as it was before
// seekPlanSpring evaluated each distinct term once: every branch
// recomputes ω (omegaRef, from the sled's parameters), the equilibrium
// offsets, both hypotenuses and all four atan2, solves both strategies,
// and angleCWRef always calls math.Mod. They are the oracle the
// rewritten solver must match bit for bit.
func (s *Sled) seekPlanRef(x0, v0, x1, v1 float64) (Plan, bool) {
	if x0 == x1 && v0 == v1 {
		return Plan{U1: 1, U2: -1}, true
	}
	if s.omegaRef() == 0 {
		return s.seekPlanNoSpring(x0, v0, x1, v1)
	}
	return s.seekPlanSpringRef(x0, v0, x1, v1)
}

func (s *Sled) omegaRef() float64 {
	if s.springFactor == 0 {
		return 0
	}
	return math.Sqrt(s.springFactor * s.accel / s.halfRange)
}

func angleCWRef(from, to float64) float64 {
	d := math.Mod(from-to, twoPi)
	if d < 0 {
		d += twoPi
	}
	return d
}

func (s *Sled) seekPlanSpringRef(x0, v0, x1, v1 float64) (Plan, bool) {
	w := s.omegaRef()
	a := s.accel
	best := Plan{}
	found := false
	for _, u1 := range []int{1, -1} {
		u2 := -u1
		c1 := float64(u1) * a / (w * w)
		c2 := float64(u2) * a / (w * w)
		// Circle 1 carries the start state, circle 2 the target state,
		// both in (x, v/ω) coordinates where motion is clockwise at ω.
		r1 := math.Hypot(x0-c1, v0/w)
		r2 := math.Hypot(x1-c2, v1/w)
		// Intersection abscissa from subtracting the circle equations.
		denom := 2 * (c2 - c1)
		xs := (r1*r1 - r2*r2 - c1*c1 + c2*c2) / denom
		ws2 := r1*r1 - (xs-c1)*(xs-c1)
		if ws2 < 0 {
			if ws2 > -1e-9*r1*r1 {
				ws2 = 0 // tangent circles within floating-point noise
			} else {
				continue // this strategy cannot reach the target
			}
		}
		wsAbs := math.Sqrt(ws2)
		th0 := math.Atan2(v0/w, x0-c1)
		tht := math.Atan2(v1/w, x1-c2)
		for _, wsv := range []float64{wsAbs, -wsAbs} {
			thS1 := math.Atan2(wsv, xs-c1)
			thS2 := math.Atan2(wsv, xs-c2)
			t1 := angleCWRef(th0, thS1) / w
			t2 := angleCWRef(thS2, tht) / w
			// Snap near-full-circle phases caused by floating-point
			// noise when the start or target coincides with the switch
			// point.
			if twoPi-t1*w < 1e-9 {
				t1 = 0
			}
			if twoPi-t2*w < 1e-9 {
				t2 = 0
			}
			p := Plan{U1: u1, T1: t1, U2: u2, T2: t2}
			if !found || p.Total() < best.Total() {
				best = p
				found = true
			}
			if wsAbs == 0 {
				break // ±0 are the same intersection
			}
		}
	}
	return best, found
}

// samePlan reports whether two SeekPlan results agree bit for bit.
func samePlan(p Plan, ok bool, q Plan, qok bool) bool {
	return ok == qok && p.U1 == q.U1 && p.U2 == q.U2 &&
		math.Float64bits(p.T1) == math.Float64bits(q.T1) &&
		math.Float64bits(p.T2) == math.Float64bits(q.T2)
}

// checkPlan fails t unless SeekPlan agrees with the reference solver.
func checkPlan(t testing.TB, label string, s *Sled, x0, v0, x1, v1 float64) {
	p, ok := s.SeekPlan(x0, v0, x1, v1)
	q, qok := s.seekPlanRef(x0, v0, x1, v1)
	if !samePlan(p, ok, q, qok) {
		t.Helper()
		t.Fatalf("%s: (%v,%v)→(%v,%v): plan %v %v, reference %v %v", label, x0, v0, x1, v1, p, ok, q, qok)
	}
}

// sledAxis is one MEMS generation's sled as the storage device builds
// it: bits per axis at bitWidth meters, the actuator acceleration and
// the per-tip rate, whose product with bitWidth is the access speed.
type sledAxis struct {
	name            string
	bits            int
	bitWidth, accel float64
	tipRate         float64
}

// sledAxes are generations 1–3 of the device model; tip sectors are 90
// bits (10 servo, 80 encoded) in each.
var sledAxes = []sledAxis{
	{"gen1", 2500, 40e-9, 803.6, 700e3},
	{"gen2", 3330, 30e-9, 1150, 1e6},
	{"gen3", 4000, 25e-9, 1500, 1.5e6},
}

func (a sledAxis) sled(spring float64) *Sled {
	return NewSled(a.accel, spring, float64(a.bits)*a.bitWidth/2)
}

// xPos is the sled's X displacement with cylinder c under the tips;
// yPos is its Y displacement at bit boundary b.
func (a sledAxis) xPos(c int) float64     { return (float64(c) - float64(a.bits-1)/2) * a.bitWidth }
func (a sledAxis) yPos(b float64) float64 { return (b - float64(a.bits)/2) * a.bitWidth }

// TestSeekPlanMatchesReference compares the solver with the reference
// bit for bit over the states the device model solves, for gen1 at
// spring 0, 0.25, 0.75 and 0.9 and gen2 and gen3 at 0.75:
//   - rest-to-rest cylinder pairs: every pair at spring 0.75 and of
//     gen1 at spring 0; pairs within 64 cylinders plus every 37th
//     beyond for gen1 at 0.25 and 0.9, and for all under -short or the
//     race detector;
//   - every row-boundary Y state of the device's seek table, leaving
//     and arriving at ±access speed;
//   - random moving states, v = 0 included.
func TestSeekPlanMatchesReference(t *testing.T) {
	const tipSectorBits = 90
	for _, ax := range sledAxes {
		springs := []float64{0.75}
		if ax.name == "gen1" {
			springs = []float64{0, 0.25, 0.75, 0.9}
		}
		for _, spring := range springs {
			s := ax.sled(spring)
			name := ax.name + "/spring=" + strconv.FormatFloat(spring, 'g', -1, 64)
			xName, yName, mName := name+" X", name+" Y", name+" moving"
			full := (spring == 0 || spring == 0.75) && !testing.Short() && !raceBuild
			for i := 0; i < ax.bits; i++ {
				if full {
					for j := 0; j < ax.bits; j++ {
						checkPlan(t, xName, s, ax.xPos(i), 0, ax.xPos(j), 0)
					}
					continue
				}
				for j := max(0, i-64); j <= min(ax.bits-1, i+64); j++ {
					checkPlan(t, xName, s, ax.xPos(i), 0, ax.xPos(j), 0)
				}
				for j := i % 37; j < ax.bits; j += 37 {
					if j < i-64 || j > i+64 {
						checkPlan(t, xName, s, ax.xPos(i), 0, ax.xPos(j), 0)
					}
				}
			}
			v := ax.tipRate * ax.bitWidth
			rows := ax.bits / tipSectorBits
			for i := 0; i <= rows; i++ {
				for j := 0; j <= rows; j++ {
					for _, v0 := range []float64{-v, v} {
						for _, v1 := range []float64{-v, v} {
							checkPlan(t, yName, s, ax.yPos(float64(i*tipSectorBits)), v0,
								ax.yPos(float64(j*tipSectorBits)), v1)
						}
					}
				}
			}
			rng := rand.New(rand.NewSource(19))
			for k := 0; k < 20000; k++ {
				x0 := (rng.Float64()*2 - 1) * s.halfRange
				x1 := (rng.Float64()*2 - 1) * s.halfRange
				v0 := (rng.Float64()*2 - 1) * 5 * v
				v1 := (rng.Float64()*2 - 1) * 5 * v
				switch k % 4 {
				case 1:
					v0 = 0
				case 2:
					v1 = 0
				}
				checkPlan(t, mName, s, x0, v0, x1, v1)
			}
		}
	}
}

// TestRestSkipEdges compares rest-to-rest plans with the reference
// where seekPlanSpring's single-strategy condition is tightest, which no
// cylinder pair reaches: ends just inside ±k, and gaps of k/4096 and
// one ulp either side, on sleds up to spring 0.999999 (travel ≈ ±k).
func TestRestSkipEdges(t *testing.T) {
	for _, spring := range []float64{0.25, 0.75, 0.9, 0.999999} {
		s := NewSled(803.6, spring, 50e-6)
		k, gap := s.k, s.k/4096
		edge := math.Nextafter(k, 0)
		for _, x0 := range []float64{-edge, -s.halfRange, -gap, 0, gap / 2, s.halfRange - gap, edge - gap} {
			for _, d := range []float64{math.Nextafter(gap, 0), gap, math.Nextafter(gap, k), 2 * gap, k, 1.5 * k} {
				for _, x1 := range []float64{x0 + d, x0 - d} {
					checkPlan(t, "rest edge", s, x0, 0, x1, 0)
					checkPlan(t, "rest edge", s, -x0, 0, -x1, 0)
				}
			}
		}
	}
}

// TestOddAtan2Edges pins negAtan2 to math.Atan2(−y, x) where oddness
// breaks or is a special case: y/x rounding to ±0 with x < 0 (atan2
// returns π for both signs), with x > 0, x = ±0, y = 0 (a tangent
// intersection, ws = 0), and a sweep of ordinary and tiny quotients.
func TestOddAtan2Edges(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	cases := [][2]float64{
		{tiny, -1e300}, {tiny, -1}, {1e-300, -1e300}, {tiny, 1e300}, {tiny, 1},
		{1, 0}, {1, math.Copysign(0, -1)}, {tiny, 0},
		{0, -1}, {0, 1}, {0, math.Copysign(0, -1)}, {0, 0},
		{1, -1}, {1, 1}, {3e-6, -2e-5}, {3e-6, 2e-5},
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		y := math.Ldexp(rng.Float64(), rng.Intn(2100)-1075)
		x := math.Ldexp(rng.Float64()*2-1, rng.Intn(2100)-1075)
		cases = append(cases, [2]float64{y, x})
	}
	for _, c := range cases {
		y, x := c[0], c[1]
		got, want := negAtan2(math.Atan2(y, x), y, x), math.Atan2(-y, x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("negAtan2 for atan2(%v, %v) = %v, want atan2(−y, x) = %v", y, x, got, want)
		}
	}
	// Moving states whose switch point lies on the v = 0 axis: the
	// phase circles touch there (ws ≈ 0), so the solver takes the
	// tangent branch or one within rounding of it.
	s := paperSled()
	for _, x := range []float64{-30e-6, 0, 1e-6, 45e-6} {
		for _, tau := range []float64{1e-5, 1e-4, 3e-4} {
			for _, u := range []int{1, -1} {
				x0, v0 := s.Evolve(x, 0, u, -tau)
				x1, v1 := s.Evolve(x, 0, -u, tau)
				checkPlan(t, "tangent", s, x0, v0, x1, v1)
			}
		}
	}
}

// TestAngleCWMatchesMod checks angleCW against the math.Mod form at the
// ends of its range — angles exactly 2π apart, which atan2 produces for
// ±π — and beyond it.
func TestAngleCWMatchesMod(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.Pi, -math.Pi, math.Pi / 2, 1e-300, -1e-300,
		twoPi, -twoPi, math.Nextafter(twoPi, 0), 3 * math.Pi, -7.5, 100}
	for _, from := range vals {
		for _, to := range vals {
			got, want := angleCW(from, to), angleCWRef(from, to)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("angleCW(%v, %v) = %v, want %v", from, to, got, want)
			}
		}
	}
}

// FuzzSeekPlan is the differential fuzz of the solver against the
// reference: any finite state folded into the sled's travel (±HalfRange)
// and ±0.5 m/s, at spring 0, 0.25, 0.75 or 0.9.
func FuzzSeekPlan(f *testing.F) {
	f.Add(uint8(2), -40e-6, 0.0, 40e-6, 0.0)
	f.Add(uint8(2), 10e-6, accessSpeed, 10e-6, -accessSpeed)
	f.Add(uint8(1), 49e-6, -accessSpeed, -3.6e-6, accessSpeed)
	f.Add(uint8(0), 0.0, 0.0, 1e-6, 0.0)
	var sleds []*Sled
	for _, spring := range []float64{0, 0.25, 0.75, 0.9} {
		sleds = append(sleds, NewSled(803.6, spring, 50e-6))
	}
	f.Fuzz(func(t *testing.T, spring uint8, x0, v0, x1, v1 float64) {
		for _, v := range []float64{x0, v0, x1, v1} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		s := sleds[int(spring)%len(sleds)]
		travel := 2 * s.halfRange
		checkPlan(t, "fuzz", s, math.Remainder(x0, travel), math.Remainder(v0, 1),
			math.Remainder(x1, travel), math.Remainder(v1, 1))
	})
}
