package stats

import "math"

// Dist couples the two accumulators the per-phase service metrics need:
// a Welford for streaming moments (mean, variance, min/max) and an
// order-statistic accumulator for percentiles (p95/p99). It exists so a
// phase's aggregate is one field, not two that can drift apart. The
// zero value is an empty accumulator ready to use.
//
// The order statistics come from one of three backends, and the Dist
// moves between them by what it has seen:
//
//   - few values: a table of at most fewLimit (value, count) pairs
//     inside the Dist, so a phase that takes one value or a handful
//     (turnaround, overhead, settle, transfer on the MEMS model) costs
//     no memory per observation. Every Dist starts here. Percentiles
//     walk the table by cumulative count and are exact.
//   - exact: a Sample retaining every observation, so percentiles are
//     exact. The Add that brings a distinct value the table cannot
//     hold (one more than fewLimit, or the first NaN or −0, whose
//     places in a sorted slice counts cannot reproduce) spills the
//     table into it. Every run the golden suite, the artifact CSVs and
//     the benchmark fingerprints pin stays in one of these two.
//   - sketch: a bounded log-bucketed Sketch whose percentiles are
//     estimates within sketchAlpha relative error at O(1) memory. The
//     table's or the Sample's observations fold into it at the
//     exactLimit-th Add, and every later Add goes to it.
//
// So memory is bounded at about min(distinct values, exactLimit)·8
// bytes per Dist whatever the run length, and a run that crosses the
// limit reports exactly what an always-sketched Dist would: the
// sketch's buckets do not depend on when the observations arrived.
// Moments are Welford-computed in every backend and never change.
//
// Callers aggregating unbounded streams that need no percentiles at all
// should prefer a bare Welford.
type Dist struct {
	w       Welford
	few     fewValues
	spilled bool // the table has given way to s, then sk
	s       Sample
	sk      *Sketch // non-nil once the Dist has migrated to the sketch
}

// fewLimit is the number of distinct values the table holds. On the
// MEMS model six of the nine phases take at most seven values (transfer
// the most) and the other three hundreds of thousands, so every size
// from 7 up keeps the same Dists in the table; 4 spills transfer, and
// 16 or 32 kept no more Dists in any benchmark workload. 8 is 7 rounded
// up to a power of two, so the last-hit index is masked into range
// with no bounds check.
const fewLimit = 8

// fewValues is the few-values backend: distinct values ascending, each
// with the number of times it was added.
type fewValues struct {
	vals   [fewLimit]float64
	counts [fewLimit]uint32 // exactLimit fits: the table folds at it
	n      uint8            // entries in use
	last   uint8            // the entry the latest Add hit
}

// exactLimit is the observation count at which a Dist leaves the exact
// backends: 1<<19 float64s are 4 MiB. It sits above every pinned output
// (the artifacts hold at most a few tens of thousands of observations
// per Dist, the benchmark workloads at most 500 000), so all of them
// stay exact.
const exactLimit = 1 << 19

// each calls f on every observation the table represents, ascending.
func (t *fewValues) each(f func(float64)) {
	for i, x := range t.vals[:t.n] {
		for c := t.counts[i]; c > 0; c-- {
			f(x)
		}
	}
}

// at returns the i-th smallest observation the table represents.
func (t *fewValues) at(i int) float64 {
	for k, c := range t.counts[:t.n] {
		if i < int(c) {
			return t.vals[k]
		}
		i -= int(c)
	}
	return t.vals[t.n-1]
}

// spill moves the table's observations into s, leaving the table unused.
func (d *Dist) spill() {
	d.few.each(d.s.Add)
	d.few = fewValues{}
	d.spilled = true
}

// useSketch moves the percentile backend to the bounded sketch, folding
// the represented observations in and releasing them.
func (d *Dist) useSketch() {
	d.sk = &Sketch{}
	d.few.each(d.sk.Add)
	d.s.each(d.sk.Add)
	d.few, d.s, d.spilled = fewValues{}, Sample{}, true
}

// Sketched reports whether the bounded sketch backend is active.
func (d *Dist) Sketched() bool { return d.sk != nil }

// Retained reports the number of observations the exact backends
// represent: n before the migration, 0 after. Memory-model tests assert
// on it.
func (d *Dist) Retained() int {
	if !d.spilled {
		return int(d.w.n)
	}
	return d.s.N()
}

// Add folds one observation into both accumulators.
func (d *Dist) Add(x float64) {
	d.w.Add(x)
	if d.spilled {
		if d.sk != nil {
			d.sk.Add(x)
			return
		}
		d.s.Add(x)
		if d.s.N() >= exactLimit {
			d.useSketch()
		}
		return
	}
	// t.last < fewLimit always; the mask only lets the compiler see it.
	if t := &d.few; t.n > 0 && math.Float64bits(x) == math.Float64bits(t.vals[t.last%fewLimit]) {
		t.counts[t.last%fewLimit]++
	} else if !d.tabulate(x) {
		return
	}
	if d.w.n >= exactLimit {
		d.useSketch()
	}
}

// tabulate counts x in the table, inserting it in order if it is new,
// and reports whether it could. When it cannot, it spills the table and
// adds x to the Sample instead.
func (d *Dist) tabulate(x float64) bool {
	t := &d.few
	b := math.Float64bits(x)
	for i := range t.n {
		if math.Float64bits(t.vals[i]) == b {
			t.counts[i]++
			t.last = i
			return true
		}
	}
	if t.n == fewLimit || x != x || (x == 0 && math.Signbit(x)) {
		d.spill()
		d.s.Add(x)
		return false
	}
	i := t.n
	for ; i > 0 && t.vals[i-1] > x; i-- {
		t.vals[i], t.counts[i] = t.vals[i-1], t.counts[i-1]
	}
	t.vals[i], t.counts[i] = x, 1
	t.last = i
	t.n++
	return true
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
// represented observations below exactLimit, an estimate within the
// sketch's documented relative-error bound past it. Returns 0 if empty.
func (d *Dist) Percentile(p float64) float64 {
	switch {
	case d.sk != nil:
		return d.sk.Percentile(p)
	case d.spilled:
		return d.s.Percentile(p)
	case d.w.n == 0:
		return 0
	}
	return interpolate(p, int(d.w.n), d.few.at)
}

// P95 returns the 95th percentile.
func (d *Dist) P95() float64 { return d.Percentile(95) }

// P99 returns the 99th percentile.
func (d *Dist) P99() float64 { return d.Percentile(99) }
