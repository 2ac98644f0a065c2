package stats

import (
	"math"
	"math/rand"
	"testing"
)

// relErr returns |got−want|/|want| with a floor on want's magnitude so
// near-zero quantiles compare absolutely.
func relErr(got, want float64) float64 {
	den := math.Abs(want)
	if den < 1e-9 {
		return math.Abs(got - want)
	}
	return math.Abs(got-want) / den
}

// TestSketchVsExactQuantiles is the property test behind the sketch's
// accuracy claim: on uniform, exponential and bimodal inputs the
// sketched p50/p95/p99 stay within the documented relative-error bound
// of the exact Sample quantiles. The asserted bound is 2×α: α from the
// bucket geometry plus slack for the rank discretization at the
// distribution tails.
func TestSketchVsExactQuantiles(t *testing.T) {
	const n = 50000
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() float64{
		"uniform":     func() float64 { return rng.Float64() * 100 },
		"exponential": func() float64 { return rng.ExpFloat64() * 10 },
		"bimodal": func() float64 {
			// A fast mode near 1 ms and a slow mode near 100 ms — the
			// shape of a response-time distribution during rebuild.
			if rng.Intn(2) == 0 {
				return math.Max(0.001, 1+rng.NormFloat64()*0.1)
			}
			return math.Max(0.001, 100+rng.NormFloat64()*5)
		},
	}
	bound := 2 * sketchAlpha
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			var exact Sample
			var sk Sketch
			for i := 0; i < n; i++ {
				x := draw()
				exact.Add(x)
				sk.Add(x)
			}
			for _, p := range []float64{50, 95, 99} {
				want := exact.Percentile(p)
				got := sk.Percentile(p)
				if e := relErr(got, want); e > bound {
					t.Errorf("p%g: sketch %.6g vs exact %.6g (rel err %.4f > %.4f)",
						p, got, want, e, bound)
				}
			}
			if sk.N() != int64(exact.N()) {
				t.Errorf("N = %d, want %d", sk.N(), exact.N())
			}
			if sk.Buckets() > 2*maxSketchBuckets {
				t.Errorf("bucket count %d exceeds hard cap", sk.Buckets())
			}
		})
	}
}

// TestSketchDistModes drives a Dist across its backend switch against
// an exact twin (a Sample and a Welford fed the same stream): below
// exactLimit it is the exact backend, bit for bit; the exactLimit-th
// Add migrates it to the sketch, which retains nothing; moments stay
// identical to the twin's throughout, percentiles stay within the
// sketch bound, and an Add after the migration still counts.
func TestSketchDistModes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var d Dist
	var exact Sample
	var w Welford
	add := func() {
		x := rng.ExpFloat64() * 5
		d.Add(x)
		exact.Add(x)
		w.Add(x)
	}
	sameMoments := func(when string) {
		t.Helper()
		if d.N() != w.N() || d.Mean() != w.Mean() || d.StdDev() != w.StdDev() ||
			d.Min() != w.Min() || d.Max() != w.Max() || d.Welford() != w {
			t.Fatalf("%s: moments diverged from the exact twin", when)
		}
	}
	for i := 0; i < exactLimit-1; i++ {
		add()
	}
	if d.Sketched() || d.Retained() != exactLimit-1 {
		t.Fatalf("below the limit: sketched=%v retained=%d, want exact with %d",
			d.Sketched(), d.Retained(), exactLimit-1)
	}
	for _, p := range []float64{0, 1, 50, 95, 99, 99.9, 100} {
		if got, want := d.Percentile(p), exact.Percentile(p); got != want {
			t.Errorf("below the limit p%g = %v, exact %v", p, got, want)
		}
	}
	sameMoments("below the limit")

	add() // the exactLimit-th observation
	if !d.Sketched() || d.Retained() != 0 {
		t.Fatalf("at the limit: sketched=%v retained=%d, want sketched with 0", d.Sketched(), d.Retained())
	}
	sameMoments("at the limit")
	for _, p := range []float64{50, 95, 99} {
		if e := relErr(d.Percentile(p), exact.Percentile(p)); e > 2*sketchAlpha {
			t.Errorf("p%g rel err %.4f after the migration", p, e)
		}
	}

	add()
	if d.N() != exactLimit+1 || d.Retained() != 0 {
		t.Fatalf("after the limit: N=%d retained=%d, want %d and 0", d.N(), d.Retained(), exactLimit+1)
	}
	sameMoments("after the limit")
}

// TestSketchMidStreamSwitch pins the migration's losslessness: a Dist
// that crosses exactLimit reports exactly the percentiles of a Sketch
// fed the whole stream from the start, even when a percentile read
// before the switch had sorted the retained samples, so a run past the
// limit reads the same as an always-sketched one.
func TestSketchMidStreamSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var d Dist
	var sk Sketch
	for i := 0; i < exactLimit+1000; i++ {
		x := rng.ExpFloat64() * 3
		if i%97 == 0 {
			x = 0 // exact zeros take the sketch's zero slot
		}
		d.Add(x)
		sk.Add(x)
		if i == exactLimit-10 {
			d.Percentile(50) // sorts the exact backend in place
		}
	}
	if d.N() != sk.N() || d.Retained() != 0 {
		t.Fatalf("N = %d (sketch %d), retained %d", d.N(), sk.N(), d.Retained())
	}
	for _, p := range []float64{0, 1, 25, 50, 95, 99, 99.9, 100} {
		if got, want := d.Percentile(p), sk.Percentile(p); got != want {
			t.Errorf("p%g = %v, always-sketched %v", p, got, want)
		}
	}
}

// TestSketchEdgeCases covers the non-lognormal corners: emptiness,
// single values, exact zeros (per-phase dists are full of them), and
// the mirrored negative store (breakdown residues).
func TestSketchEdgeCases(t *testing.T) {
	var s Sketch
	if s.Percentile(50) != 0 || s.N() != 0 || s.Mean() != 0 {
		t.Fatal("empty sketch not zero-valued")
	}
	s.Add(3.5)
	if s.Percentile(50) != 3.5 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Fatalf("single value: p50=%g min=%g max=%g", s.Percentile(50), s.Min(), s.Max())
	}

	var z Sketch
	for i := 0; i < 900; i++ {
		z.Add(0)
	}
	for i := 0; i < 100; i++ {
		z.Add(10)
	}
	if got := z.Percentile(50); got != 0 {
		t.Errorf("p50 over 90%% zeros = %g, want 0", got)
	}
	if e := relErr(z.Percentile(99), 10); e > 2*sketchAlpha {
		t.Errorf("p99 over zeros+tens = %g", z.Percentile(99))
	}

	var neg Sketch
	for i := 1; i <= 100; i++ {
		neg.Add(-float64(i))
	}
	p50 := neg.Percentile(50)
	if p50 > 0 || relErr(-p50, 50.5) > 3*sketchAlpha {
		t.Errorf("negative p50 = %g, want ≈ −50.5", p50)
	}
	if neg.Percentile(0) != -100 || neg.Percentile(100) != -1 {
		t.Errorf("negative extremes: p0=%g p100=%g", neg.Percentile(0), neg.Percentile(100))
	}
}

// TestSketchMerge asserts Merge is equivalent to interleaved Adds.
func TestSketchMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var a, b, all Sketch
	for i := 0; i < 10000; i++ {
		x := rng.ExpFloat64() * 3
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatalf("merged extremes diverged")
	}
	for _, p := range []float64{50, 95, 99} {
		if got, want := a.Percentile(p), all.Percentile(p); relErr(got, want) > 1e-12 {
			t.Errorf("p%g: merged %g vs combined %g", p, got, want)
		}
	}
}

// TestSketchBucketCap forces the collapse path with an absurd dynamic
// range and asserts the memory cap holds, no observation is lost, and
// upper quantiles keep their guarantee (the collapse is bottom-biased).
func TestSketchBucketCap(t *testing.T) {
	var s Sketch
	n := 0
	for e := -8; e <= 300; e += 2 {
		s.Add(math.Pow(10, float64(e)))
		n++
	}
	if s.pos.count != int64(n) {
		t.Fatalf("collapse lost observations: %d of %d", s.pos.count, n)
	}
	if got := s.Buckets(); got > maxSketchBuckets {
		t.Fatalf("bucket cap broken: %d > %d", got, maxSketchBuckets)
	}
	if e := relErr(s.Percentile(99), math.Pow(10, 296)); e > 2*sketchAlpha {
		t.Errorf("upper quantile after collapse off by %.4f", e)
	}
}

// TestSamplePercentileCache is the regression test for the sorted-copy
// cache: Percentile sorts once and reuses the sorted order across
// queries, and Add invalidates the cache so later queries stay correct.
func TestSamplePercentileCache(t *testing.T) {
	var s Sample
	for _, x := range []float64{9, 1, 5, 3, 7} {
		s.Add(x)
	}
	if s.sorted() {
		t.Fatal("cache valid before any query")
	}
	if got := s.Percentile(50); got != 5 {
		t.Fatalf("p50 = %g, want 5", got)
	}
	if !s.sorted() {
		t.Fatal("first query did not establish the cache")
	}
	// A second query must serve from the cached order.
	if got := s.Percentile(100); got != 9 {
		t.Fatalf("cached p100 = %g, want 9", got)
	}
	s.Add(11)
	if s.sorted() {
		t.Fatal("Add did not invalidate the cache")
	}
	if got := s.Percentile(100); got != 11 {
		t.Fatalf("post-invalidation p100 = %g, want 11", got)
	}
	if !s.sorted() {
		t.Fatal("re-query did not re-establish the cache")
	}
}

// BenchmarkSamplePercentileRepeated quantifies what the cache buys:
// repeated percentile queries over a static sample must not re-sort.
func BenchmarkSamplePercentileRepeated(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var s Sample
	for i := 0; i < 100000; i++ {
		s.Add(rng.Float64())
	}
	s.Percentile(50) // establish the cache outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Percentile(95)
		s.Percentile(99)
	}
}

// BenchmarkDistAdd compares the exact and sketched Add paths — the
// per-observation cost every measured completion pays. The exact row
// starts a fresh Dist before each would migrate.
func BenchmarkDistAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 8192)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 10
	}
	b.Run("exact", func(b *testing.B) {
		var d Dist
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%(exactLimit-1) == 0 {
				d = Dist{} // stay below the migration
			}
			d.Add(xs[i%len(xs)])
		}
	})
	b.Run("sketch", func(b *testing.B) {
		var d Dist
		d.useSketch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Add(xs[i%len(xs)])
		}
	})
}

// BenchmarkMeterParallel times Meter.Add under full parallel
// contention — every worker hammering one shared Meter with no work
// between adds, the worst case the parallel experiment runner could
// ever present. The runner actually adds twice per *job* (milliseconds
// to seconds of simulation each), so the measured per-add cost bounds
// the runner's total Meter overhead at a few microseconds per batch;
// DESIGN.md records the conclusion.
func BenchmarkMeterParallel(b *testing.B) {
	var m Meter
	b.RunParallel(func(pb *testing.PB) {
		x := 0.0
		for pb.Next() {
			m.Add(x)
			x++
		}
	})
	if m.Snapshot().N() != int64(b.N) {
		b.Fatal("lost adds")
	}
}

// BenchmarkSketchPercentile times a quantile query over a populated
// sketch (a bucket walk, independent of observation count).
func BenchmarkSketchPercentile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var s Sketch
	for i := 0; i < 1000000; i++ {
		s.Add(rng.ExpFloat64() * 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Percentile(99)
	}
}
