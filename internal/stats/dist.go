package stats

// Dist couples the two accumulators the per-phase service metrics need:
// a Welford for streaming moments (mean, variance, min/max) and an
// order-statistic accumulator for percentiles (p95/p99). It exists so a
// phase's aggregate is one field, not two that can drift apart. The
// zero value is an empty accumulator ready to use.
//
// The order statistics come from one of two backends:
//
//   - exact (default): a Sample retaining every observation, so
//     percentiles are exact — and memory is O(n). This is the
//     historical behavior and the one the golden byte-identity suite
//     pins.
//   - sketch: a bounded log-bucketed Sketch, selected by UseSketch
//     (sim.Context.Sketch / memsbench -sketch), holding percentile
//     estimates within sketchAlpha relative error at O(1) memory —
//     the backend for million-request runs.
//
// Callers aggregating unbounded streams that need no percentiles at all
// should prefer a bare Welford.
type Dist struct {
	w  Welford
	s  Sample
	sk *Sketch // non-nil selects the sketch backend
}

// UseSketch switches the percentile backend to the bounded sketch.
// Observations already retained by the exact backend are folded into
// the sketch and released, so flipping mid-stream loses no data — but
// the idiomatic call site flips the mode before the first Add.
func (d *Dist) UseSketch() {
	if d.sk != nil {
		return
	}
	d.sk = &Sketch{}
	for _, x := range d.s.xs {
		d.sk.Add(x)
	}
	d.s = Sample{}
}

// Sketched reports whether the bounded sketch backend is active.
func (d *Dist) Sketched() bool { return d.sk != nil }

// Retained reports the number of observations the exact backend holds:
// n in exact mode, 0 in sketch mode. Memory-model tests assert on it.
func (d *Dist) Retained() int { return d.s.N() }

// Add folds one observation into both accumulators.
func (d *Dist) Add(x float64) {
	d.w.Add(x)
	if d.sk != nil {
		d.sk.Add(x)
		return
	}
	d.s.Add(x)
}

// N reports the number of observations added.
func (d *Dist) N() int64 { return d.w.N() }

// Mean returns the arithmetic mean, or 0 if empty.
func (d *Dist) Mean() float64 { return d.w.Mean() }

// Min returns the smallest observation, or 0 if empty.
func (d *Dist) Min() float64 { return d.w.Min() }

// Max returns the largest observation, or 0 if empty.
func (d *Dist) Max() float64 { return d.w.Max() }

// StdDev returns the population standard deviation.
func (d *Dist) StdDev() float64 { return d.w.StdDev() }

// SquaredCV returns σ²/µ², the paper's starvation metric.
func (d *Dist) SquaredCV() float64 { return d.w.SquaredCV() }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100): exact over the
// retained observations by default, an estimate within the sketch's
// documented relative-error bound in sketch mode. Returns 0 if empty.
func (d *Dist) Percentile(p float64) float64 {
	if d.sk != nil {
		return d.sk.Percentile(p)
	}
	return d.s.Percentile(p)
}

// P95 returns the 95th percentile.
func (d *Dist) P95() float64 { return d.Percentile(95) }

// P99 returns the 99th percentile.
func (d *Dist) P99() float64 { return d.Percentile(99) }

// Welford returns a copy of the streaming accumulator, for callers that
// want to Merge several Dists' moments.
func (d *Dist) Welford() Welford { return d.w }
