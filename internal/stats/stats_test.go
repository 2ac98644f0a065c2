package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Variance() != 0 || w.SquaredCV() != 0 {
		t.Fatalf("zero-value Welford should report zeros, got n=%d mean=%g var=%g",
			w.N(), w.Mean(), w.Variance())
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.N() != 1 || w.Mean() != 42 || w.Variance() != 0 {
		t.Fatalf("single observation: n=%d mean=%g var=%g", w.N(), w.Mean(), w.Variance())
	}
	if w.Min() != 42 || w.Max() != 42 {
		t.Fatalf("min/max: %g/%g", w.Min(), w.Max())
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Mean() != 5 {
		t.Errorf("mean = %g, want 5", w.Mean())
	}
	if w.Variance() != 4 {
		t.Errorf("variance = %g, want 4", w.Variance())
	}
	if w.StdDev() != 2 {
		t.Errorf("stddev = %g, want 2", w.StdDev())
	}
	if got := w.SquaredCV(); got != 4.0/25.0 {
		t.Errorf("cv² = %g, want %g", got, 4.0/25.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %g/%g, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w Welford
	var xs []float64
	for i := 0; i < 10000; i++ {
		x := rng.NormFloat64()*3 + 100
		xs = append(xs, x)
		w.Add(x)
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	naiveVar := varSum / float64(len(xs))
	if !almostEqual(w.Mean(), mean, 1e-10) {
		t.Errorf("mean = %.12g, naive %.12g", w.Mean(), mean)
	}
	if !almostEqual(w.Variance(), naiveVar, 1e-8) {
		t.Errorf("variance = %.12g, naive %.12g", w.Variance(), naiveVar)
	}
}

func TestWelfordVarianceNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			w.Add(math.Mod(x, 1e9))
		}
		return w.Variance() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 100}, {50, 50.5}, {25, 25.75}, {75, 75.25},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("P%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := s.Percentile(50); !almostEqual(got, 50.5, 1e-12) {
		t.Errorf("median = %g, want 50.5", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Percentile(50) != 0 || s.N() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSamplePercentileMonotonic(t *testing.T) {
	f := func(xs []float64) bool {
		var s Sample
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		prev := s.Percentile(0)
		for p := 5.0; p <= 100; p += 5 {
			cur := s.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMeterConcurrentAdds(t *testing.T) {
	// A Meter must accumulate exactly like a Welford fed the same
	// observations, regardless of how many goroutines feed it.
	var m Meter
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Add(float64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	snap := m.Snapshot()
	if snap.N() != workers*per {
		t.Fatalf("N = %d, want %d", snap.N(), workers*per)
	}
	want := float64(workers*per-1) / 2
	if math.Abs(snap.Mean()-want) > 1e-9 {
		t.Errorf("mean = %g, want %g", snap.Mean(), want)
	}
}
