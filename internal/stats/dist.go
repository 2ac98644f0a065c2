package stats

// Dist couples the two accumulators the per-phase service metrics need:
// a Welford for streaming moments (mean, variance, min/max) and an
// order-statistic accumulator for percentiles (p95/p99). It exists so a
// phase's aggregate is one field, not two that can drift apart. The
// zero value is an empty accumulator ready to use.
//
// The order statistics come from one of two backends, and the Dist
// picks between them by its own size:
//
//   - exact: a Sample retaining every observation, so percentiles are
//     exact. Every Dist starts here, and every run the golden suite,
//     the artifact CSVs and the benchmark fingerprints pin stays here.
//   - sketch: a bounded log-bucketed Sketch whose percentiles are
//     estimates within sketchAlpha relative error at O(1) memory. The
//     exact backend's observations fold into it, in insertion order,
//     at the exactLimit-th Add, and every later Add goes to it.
//
// So memory is bounded at about exactLimit·8 bytes per Dist whatever
// the run length, and a run that crosses the limit reports exactly
// what an always-sketched Dist would: the sketch's buckets do not
// depend on when the observations arrived. Moments are Welford-computed
// in both backends and never change.
//
// Callers aggregating unbounded streams that need no percentiles at all
// should prefer a bare Welford.
type Dist struct {
	w  Welford
	s  Sample
	sk *Sketch // non-nil once the Dist has migrated to the sketch
}

// exactLimit is the observation count at which a Dist leaves the exact
// backend: 1<<19 float64s are 4 MiB. It sits above every pinned output
// (the artifacts hold at most a few tens of thousands of observations
// per Dist, the benchmark workloads at most 500 000), so all of them
// stay exact.
const exactLimit = 1 << 19

// useSketch moves the percentile backend to the bounded sketch, folding
// the retained observations in and releasing them.
func (d *Dist) useSketch() {
	d.sk = &Sketch{}
	d.s.each(d.sk.Add)
	d.s = Sample{}
}

// Sketched reports whether the bounded sketch backend is active.
func (d *Dist) Sketched() bool { return d.sk != nil }

// Retained reports the number of observations the exact backend holds:
// n before the migration, 0 after. Memory-model tests assert on it.
func (d *Dist) Retained() int { return d.s.N() }

// Add folds one observation into both accumulators.
func (d *Dist) Add(x float64) {
	d.w.Add(x)
	if d.sk != nil {
		d.sk.Add(x)
		return
	}
	d.s.Add(x)
	if d.s.N() >= exactLimit {
		d.useSketch()
	}
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
// retained observations below exactLimit, an estimate within the
// sketch's documented relative-error bound past it. Returns 0 if empty.
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
