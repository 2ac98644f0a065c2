package stats

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// refSample is the plain-slice layout Sample had before its blocks: one
// slice, appended to as it grows and sorted in place by Percentile. The
// block layout must answer every query with the same bits.
type refSample struct {
	xs     []float64
	sorted bool
}

func (s *refSample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

func (s *refSample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

func (s *refSample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// tieStream draws values with many ties and both signed zeros, so a
// percentile that lands on a zero shows which zero the sort put there:
// the block layout must hand sort.Float64s the same sequence.
func tieStream(seed int64) func() float64 {
	rng := rand.New(rand.NewSource(seed))
	return func() float64 {
		x := float64(rng.Intn(40)) * 0.25
		if rng.Intn(2) == 0 {
			x = -x
		}
		return x
	}
}

// sameAnswers compares N, Mean and a sweep of percentiles bit for bit.
func sameAnswers(t *testing.T, label string, s *Sample, ref *refSample) {
	t.Helper()
	if s.N() != len(ref.xs) {
		t.Fatalf("%s: N = %d, want %d", label, s.N(), len(ref.xs))
	}
	if got, want := s.Mean(), ref.Mean(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: Mean = %v, want %v", label, got, want)
	}
	for p := 0.0; p <= 100; p += 0.25 {
		if got, want := s.Percentile(p), ref.Percentile(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: P%g = %v, want %v", label, p, got, want)
		}
	}
}

// TestSampleBlocksMatchPlainSlice holds the block layout to the plain
// slice across block edges: the first block's (1024), the doubling
// blocks' (3072, 7168, 15360), a whole blockLen and the counts around
// them. Each case then adds more observations after its Percentile
// queries, so a sorted prefix and new blocks are joined and sorted
// again, and queries once more.
func TestSampleBlocksMatchPlainSlice(t *testing.T) {
	for _, n := range []int{1, 1023, 1024, 1025, 3072, 3073, 7168, 8191, 8192, 8193,
		15360, 15361, 2*blockLen + 1} {
		next := tieStream(int64(n))
		var s Sample
		var ref refSample
		add := func(k int) {
			for i := 0; i < k; i++ {
				x := next()
				s.Add(x)
				ref.Add(x)
			}
		}
		add(n)
		if s.sorted() {
			t.Fatalf("n=%d: sorted before any Percentile", n)
		}
		sameAnswers(t, "first query", &s, &ref)
		add(blockLen + 5)
		sameAnswers(t, "after more Adds", &s, &ref)
	}
}

// TestDistFoldMatchesPlainSlice crosses exactLimit with a Percentile
// midway, so the fold meets a sorted prefix and then blocks. The sketch
// it builds must equal one fed the plain slice's storage order, field
// for field, and the moments must not move.
func TestDistFoldMatchesPlainSlice(t *testing.T) {
	next := tieStream(7)
	var d Dist
	var ref refSample
	var w Welford
	for i := 0; i < exactLimit+100; i++ {
		x := next()
		d.Add(x)
		w.Add(x)
		if i < exactLimit {
			ref.Add(x)
		}
		switch i {
		case exactLimit / 3:
			if got, want := d.Percentile(50), ref.Percentile(50); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("midway P50 = %v, want %v", got, want)
			}
		case exactLimit - 1:
			if !d.Sketched() {
				t.Fatal("no fold at exactLimit")
			}
			want := &Sketch{}
			for _, x := range ref.xs {
				want.Add(x)
			}
			if !reflect.DeepEqual(d.sk, want) {
				t.Fatal("the fold's sketch differs from the plain slice's")
			}
		}
	}
	if d.Welford() != w {
		t.Fatalf("moments moved: %+v, want %+v", d.Welford(), w)
	}
}

// TestSampleAllocatesPerBlock counts a Sample's heap allocations: one
// per block (1024, 2048, 4096, then 8192 floats each) plus one for the
// list of filled blocks, whatever the number of observations between.
func TestSampleAllocatesPerBlock(t *testing.T) {
	runtime.GC() // start the mark workers outside the counted runs
	for _, tc := range []struct{ n, blocks int }{
		{1, 1},
		{firstLen, 1},
		{firstLen + 1, 2},
		{7168, 3},
		{7169, 4},
		{7168 + 2*blockLen + 1, 6},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			var s Sample
			for i := 0; i < tc.n; i++ {
				s.Add(float64(i))
			}
		})
		want := tc.blocks
		if tc.blocks > 1 {
			want++ // the list of filled blocks
		}
		if allocs != float64(want) {
			t.Errorf("n=%d: %g allocations, want %d", tc.n, allocs, want)
		}
	}
}
