// Package stats provides the streaming statistics used throughout the
// simulator: online mean/variance accumulation (Welford's algorithm), the
// squared coefficient of variation that the paper uses as its starvation
// metric, and percentile estimation over retained samples.
//
// All accumulators are plain values whose zero value is ready to use, in
// keeping with the rest of the standard library.
package stats

import (
	"math"
	"sort"
	"sync"
)

// Welford accumulates a running mean and variance without retaining
// samples. The zero value is an empty accumulator.
type Welford struct {
	n    int64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N reports the number of observations added.
func (w Welford) N() int64 { return w.n }

// Mean returns the arithmetic mean of the observations, or 0 if empty.
func (w Welford) Mean() float64 { return w.mean }

// Min returns the smallest observation, or 0 if empty.
func (w Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 if empty.
func (w Welford) Max() float64 { return w.max }

// Variance returns the population variance (dividing by n), or 0 when
// fewer than two observations have been added.
func (w Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// SquaredCV returns the squared coefficient of variation, σ²/µ². This is
// the metric of "fairness" (starvation resistance) used in the paper
// (after Teorey & Pinkerton and Worthington et al.): lower values indicate
// better starvation resistance. Returns 0 if the mean is zero.
func (w Welford) SquaredCV() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.Variance() / (w.mean * w.mean)
}

// Meter is a Welford accumulator safe for concurrent use. The parallel
// experiment runner's workers fold per-job metrics (wall-clock and
// simulated milliseconds) into shared Meters without further locking.
// The zero value is an empty accumulator ready to use.
type Meter struct {
	mu sync.Mutex
	w  Welford
}

// Add folds one observation into the accumulator.
func (m *Meter) Add(x float64) {
	m.mu.Lock()
	m.w.Add(x)
	m.mu.Unlock()
}

// Snapshot returns a copy of the accumulated statistics.
func (m *Meter) Snapshot() Welford {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.w
}

// Sample retains every observation so that exact order statistics can be
// computed afterwards. The zero value is ready to use.
//
// Observations go into blocks rather than one slice re-copied as it
// grows: a block, once full, is never copied again. Blocks double from
// firstLen to blockLen floats and then stay at blockLen, so a small
// Sample holds little more than its observations and a large one
// allocates once per blockLen of them. The first Percentile joins the
// blocks into one slice and sorts it; later Adds start new blocks,
// which the next Percentile appends to the sorted slice and sorts
// again. Every value sits in storage order — the sorted slice, then the
// blocks in insertion order — exactly where a single appended slice
// would hold it, so Mean sums, Percentile sorts and Dist's sketch fold
// sees the same sequence either way.
type Sample struct {
	xs    []float64   // every observation up to the last Percentile, sorted
	full  [][]float64 // filled blocks added since, in insertion order
	nfull int         // observations in full
	cur   []float64   // the block being filled
}

// Sample block sizes: the first block holds firstLen float64s (8 KiB),
// each next one twice its predecessor, up to blockLen (64 KiB).
const (
	firstLen = 1024
	blockLen = 8192
)

// Add appends one observation.
func (s *Sample) Add(x float64) {
	if len(s.cur) == cap(s.cur) {
		s.grow()
	}
	s.cur = append(s.cur, x)
}

// grow retires the full block cur, if any, and starts the next one.
func (s *Sample) grow() {
	c := cap(s.cur)
	if c > 0 {
		if s.full == nil {
			s.full = make([][]float64, 0, 8)
		}
		s.full = append(s.full, s.cur)
		s.nfull += c
	}
	s.cur = make([]float64, 0, min(max(2*c, firstLen), blockLen))
}

// each calls f on every observation in storage order.
func (s *Sample) each(f func(float64)) {
	for _, x := range s.xs {
		f(x)
	}
	for _, b := range s.full {
		for _, x := range b {
			f(x)
		}
	}
	for _, x := range s.cur {
		f(x)
	}
}

// sorted reports whether xs holds every observation, sorted.
func (s *Sample) sorted() bool { return len(s.full) == 0 && len(s.cur) == 0 }

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) + s.nfull + len(s.cur) }

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Sample) Mean() float64 {
	n := s.N()
	if n == 0 {
		return 0
	}
	sum := 0.0
	s.each(func(x float64) { sum += x })
	return sum / float64(n)
}

// join gathers every observation into xs in storage order and sorts it.
// A Sample that holds nothing but its first block sorts that block in
// place instead of copying it.
func (s *Sample) join() {
	xs := s.cur
	if len(s.xs) > 0 || len(s.full) > 0 {
		xs = make([]float64, 0, s.N())
		s.each(func(x float64) { xs = append(xs, x) })
	}
	sort.Float64s(xs)
	s.xs, s.full, s.nfull, s.cur = xs, nil, 0, nil
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between closest ranks. Returns 0 if empty.
func (s *Sample) Percentile(p float64) float64 {
	if s.N() == 0 {
		return 0
	}
	if !s.sorted() {
		s.join()
	}
	return interpolate(p, len(s.xs), func(i int) float64 { return s.xs[i] })
}

// interpolate returns the p-th percentile of n > 0 sorted observations,
// at(i) being the i-th smallest: linear interpolation between the
// closest ranks. Sample and Dist's table both answer through it, so
// they return the same bits for the same observations.
func interpolate(p float64, n int, at func(int) float64) float64 {
	if p <= 0 {
		return at(0)
	}
	if p >= 100 {
		return at(n - 1)
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return at(lo)
	}
	frac := rank - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}
