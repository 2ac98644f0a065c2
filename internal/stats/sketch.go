package stats

import "math"

// Sketch is a bounded-memory quantile estimator over a stream of
// observations — the constant-memory alternative to Sample for
// million-request runs, in the tradition of DDSketch (Masson, Rim &
// Lee) and t-digest (Dunning & Ertl).
//
// The estimator is a logarithmically-bucketed histogram: an observation
// x > 0 lands in bucket ⌈log_γ x⌉, so every bucket spans a fixed ratio
// γ of values and any quantile read back from a bucket midpoint carries
// a relative error of at most α = (γ−1)/(γ+1) (≈1% at the default
// geometry). Memory is proportional to the logarithm of the observed
// dynamic range — ~115 buckets per decade at α = 1% — and independent
// of the observation count; a hard cap (maxSketchBuckets) collapses the
// smallest-magnitude buckets in the astronomically unlikely case the
// range outgrows it, so the worst case is O(1) by construction, not
// just in expectation.
//
// Zeros (|x| ≤ sketchMinValue) are counted exactly in a dedicated slot,
// which matters here: per-phase service distributions are full of exact
// zeros (requests that never seek, never settle). Negative observations
// get a mirrored store — breakdown residues can dip a hair below zero —
// so Percentile is total over the whole real line.
//
// The zero value is an empty sketch ready to use; determinism is
// absolute (no randomness, no timing), so sketched runs replay
// byte-identically like everything else in the simulator.
type Sketch struct {
	count int64
	zero  int64 // observations with |x| ≤ sketchMinValue
	sum   float64
	min   float64
	max   float64
	pos   sketchStore // x > sketchMinValue, keyed on x
	neg   sketchStore // x < −sketchMinValue, keyed on −x
}

const (
	// sketchAlpha is the guaranteed relative accuracy of every quantile
	// estimate: the bucket geometry γ = (1+α)/(1−α) keeps each bucket's
	// midpoint within α of every value the bucket covers.
	sketchAlpha = 0.01
	// sketchMinValue is the magnitude below which observations are
	// counted as exact zeros instead of being bucketed (log buckets
	// cannot represent 0). 1e-9 ms is far below any simulated timing.
	sketchMinValue = 1e-9
	// maxSketchBuckets caps one store's bucket slice. At α = 1% it
	// covers ~35 decades of dynamic range before the collapse path
	// triggers, so in practice it is a safety net, not a working limit.
	maxSketchBuckets = 4096
)

// sketchGamma and sketchInvLogGamma derive the bucket geometry from
// sketchAlpha once; they are effectively constants.
var (
	sketchGamma       = (1 + sketchAlpha) / (1 - sketchAlpha)
	sketchInvLogGamma = 1 / math.Log(sketchGamma)
)

// sketchKey maps a magnitude v > sketchMinValue to its bucket key
// ⌈log_γ v⌉.
func sketchKey(v float64) int {
	return int(math.Ceil(math.Log(v) * sketchInvLogGamma))
}

// sketchValue returns the representative value for key k: the midpoint
// 2γ^k/(γ+1) of the bucket's value interval (γ^(k−1), γ^k], which is
// within α of every value in the interval.
func sketchValue(k int) float64 {
	return 2 * math.Pow(sketchGamma, float64(k)) / (sketchGamma + 1)
}

// sketchStore is one sign's bucket array: buckets[i] counts keys
// minKey+i. It grows toward both ends on demand and collapses its
// lowest keys into one bucket at the hard cap.
type sketchStore struct {
	minKey  int
	buckets []int64
	count   int64
}

// add tallies n observations with the given key.
func (s *sketchStore) add(key int, n int64) {
	s.count += n
	if len(s.buckets) == 0 {
		s.buckets = append(s.buckets, n)
		s.minKey = key
		return
	}
	if key < s.minKey {
		if grow := s.minKey - key; len(s.buckets)+grow > maxSketchBuckets {
			// Below-cap keys collapse into the lowest retained bucket:
			// the error there becomes one-sided (values reported high),
			// but only once the dynamic range exceeds ~γ^maxSketchBuckets.
			s.buckets[0] += n
			return
		}
		grown := make([]int64, len(s.buckets)+(s.minKey-key))
		copy(grown[s.minKey-key:], s.buckets)
		s.buckets = grown
		s.minKey = key
		s.buckets[0] += n
		return
	}
	if i := key - s.minKey; i < len(s.buckets) {
		s.buckets[i] += n
		return
	}
	need := key - s.minKey + 1
	if need > maxSketchBuckets {
		// Collapse from below to make room at the top: high quantiles
		// keep their guarantee, the collapsed low tail goes one-sided.
		drop := need - maxSketchBuckets
		var merged int64
		for i := 0; i < drop && i < len(s.buckets); i++ {
			merged += s.buckets[i]
		}
		rest := s.buckets[min(drop, len(s.buckets)):]
		grown := make([]int64, maxSketchBuckets)
		copy(grown, rest)
		grown[0] += merged
		s.buckets = grown
		s.minKey += drop
	} else {
		grown := make([]int64, need)
		copy(grown, s.buckets)
		s.buckets = grown
	}
	s.buckets[key-s.minKey] += n
}

// merge folds other into s, bucket by bucket.
func (s *sketchStore) merge(other *sketchStore) {
	for i, c := range other.buckets {
		if c > 0 {
			s.add(other.minKey+i, c)
		}
	}
}

// Add folds one observation into the sketch.
func (s *Sketch) Add(x float64) {
	if s.count == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.count++
	s.sum += x
	switch {
	case x > sketchMinValue:
		s.pos.add(sketchKey(x), 1)
	case x < -sketchMinValue:
		s.neg.add(sketchKey(-x), 1)
	default:
		s.zero++
	}
}

// N reports the number of observations added.
func (s *Sketch) N() int64 { return s.count }

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the smallest observation, or 0 if empty.
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation, or 0 if empty.
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Percentile returns an estimate of the p-th percentile (0 ≤ p ≤ 100)
// with relative error at most sketchAlpha, using the same closest-rank
// convention as Sample.Percentile. Estimates are clamped into the exact
// [Min, Max] envelope. Returns 0 if empty.
func (s *Sketch) Percentile(p float64) float64 {
	if s.count == 0 {
		return 0
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	// The observation with rank r (0-based) in the cumulative order:
	// negatives from most to least negative, zeros, then positives.
	rank := int64(p / 100 * float64(s.count-1))
	v, ok := s.rankValue(rank)
	if !ok {
		return s.max
	}
	// Clamp into the exact envelope: the bucket midpoint can spill a
	// hair past the true extremes.
	if v < s.min {
		v = s.min
	}
	if v > s.max {
		v = s.max
	}
	return v
}

// rankValue locates the 0-based rank in the cumulative bucket order.
func (s *Sketch) rankValue(rank int64) (float64, bool) {
	// Negative store: highest key = most negative value comes first.
	cum := int64(0)
	for i := len(s.neg.buckets) - 1; i >= 0; i-- {
		cum += s.neg.buckets[i]
		if rank < cum {
			return -sketchValue(s.neg.minKey + i), true
		}
	}
	cum += s.zero
	if rank < cum {
		return 0, true
	}
	for i, c := range s.pos.buckets {
		cum += c
		if rank < cum {
			return sketchValue(s.pos.minKey + i), true
		}
	}
	return 0, false
}

// Median returns the 50th percentile estimate.
func (s *Sketch) Median() float64 { return s.Percentile(50) }

// P95 returns the 95th percentile estimate.
func (s *Sketch) P95() float64 { return s.Percentile(95) }

// P99 returns the 99th percentile estimate.
func (s *Sketch) P99() float64 { return s.Percentile(99) }

// Merge folds the contents of other into s, as if every observation
// added to other had been added to s.
func (s *Sketch) Merge(other *Sketch) {
	if other.count == 0 {
		return
	}
	if s.count == 0 {
		s.min, s.max = other.min, other.max
	} else {
		if other.min < s.min {
			s.min = other.min
		}
		if other.max > s.max {
			s.max = other.max
		}
	}
	s.count += other.count
	s.sum += other.sum
	s.zero += other.zero
	s.pos.merge(&other.pos)
	s.neg.merge(&other.neg)
}

// Buckets reports the number of allocated buckets across both stores —
// the sketch's memory footprint in units of int64, bounded by
// 2×maxSketchBuckets regardless of how many observations were added.
func (s *Sketch) Buckets() int { return len(s.pos.buckets) + len(s.neg.buckets) }
