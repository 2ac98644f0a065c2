package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// fewValuesCase is one stream for the few-values backend: observations
// drawn from vals with a skew (vals[0] most often, the last rarely, so
// some distinct values arrive late and spill a table that was full of
// the others), Percentile queried every `every` Adds, and the Dist and
// its reference started afresh every `reset` Adds (0: never), so one
// stream can spill more than once.
type fewValuesCase struct {
	name         string
	vals         []float64
	n            int
	every, reset int
	seed         int64
}

var negZero = math.Copysign(0, -1)

// fewValuesCases are the seed set: the table filled, filled and one
// past, two past; −0 and NaN in each order; the breakdown's tiny
// negative residues beside exact zeros.
var fewValuesCases = []fewValuesCase{
	{name: "const", vals: []float64{0.5}, n: 3000, every: 97},
	{name: "zero", vals: []float64{0}, n: 500, every: 7},
	{name: "two", vals: []float64{0.2, 0}, n: 2000, every: 31},
	{name: "fills the table", vals: []float64{3, 1, 4, 1.5, 9, 2.6, 5, 0.35}, n: 4000, every: 13},
	{name: "one past", vals: []float64{3, 1, 4, 1.5, 9, 2.6, 5, 0.35, 8}, n: 4000, every: 13},
	{name: "two past", vals: []float64{0.7, 0.1, 0.4, 0.3, 0.9, 0.6, 0.5, 0.35, 0.8, 0.2}, n: 4000, every: 5},
	{name: "negative zero late", vals: []float64{0, 1.5, 0.25, negZero}, n: 3000, every: 11},
	{name: "negative zero first", vals: []float64{negZero, 0, 2}, n: 1000, every: 3},
	{name: "NaN late", vals: []float64{1, 2, 0, math.NaN()}, n: 2000, every: 17},
	{name: "NaN first", vals: []float64{math.NaN(), 1}, n: 500, every: 1},
	{name: "residues", vals: []float64{0, -1e-12, 0.25, -2.220446049250313e-16, 1e-300}, n: 3000, every: 23},
	{name: "infinities", vals: []float64{math.Inf(1), 1, math.Inf(-1)}, n: 1000, every: 9},
	{name: "repeated spills", vals: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, negZero}, n: 6000, every: 19, reset: 700},
}

// sameBits reports whether a Dist's answer equals the plain slice's bit
// for bit, except that ±0 compare as equal: which zero a percentile
// lands on depends on the order in which sort.Float64s met them, which
// a spilled table does not keep.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || got == want
}

// sameWelford compares two Welfords field for field by their bits, so
// NaN moments fed the same stream compare equal.
func sameWelford(a, b Welford) bool {
	bits := func(w Welford) [4]uint64 {
		return [4]uint64{math.Float64bits(w.mean), math.Float64bits(w.m2),
			math.Float64bits(w.min), math.Float64bits(w.max)}
	}
	return a.n == b.n && bits(a) == bits(b)
}

// checkFewValues feeds c's stream to a Dist and to the plain-slice
// refSample and compares every percentile query, and the moments with
// a Welford fed the same, at each query and at the end.
func checkFewValues(t *testing.T, c fewValuesCase) {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	var d Dist
	var ref refSample
	var w Welford
	query := func(at int) {
		t.Helper()
		ps := []float64{0, 50, 95, 99, 100, rng.Float64() * 100, rng.Float64()*120 - 10}
		for _, p := range ps {
			if got, want := d.Percentile(p), ref.Percentile(p); !sameBits(got, want) {
				t.Fatalf("%s: after %d Adds P%g = %v (%#x), plain slice %v (%#x)",
					c.name, at, p, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		if !sameWelford(d.w, w) || d.Retained() != len(ref.xs) || d.Sketched() {
			t.Fatalf("%s: after %d Adds moments %+v retained %d, want %+v and %d",
				c.name, at, d.w, d.Retained(), w, len(ref.xs))
		}
	}
	for i := 1; i <= c.n; i++ {
		x := c.vals[min(len(c.vals)-1, int(rng.ExpFloat64()*float64(len(c.vals))/3))]
		d.Add(x)
		ref.Add(x)
		w.Add(x)
		if i%c.every == 0 {
			query(i)
		}
		if c.reset > 0 && i%c.reset == 0 {
			d, ref, w = Dist{}, refSample{}, Welford{}
			query(i)
		}
	}
	query(c.n)
}

// TestDistFewValuesMatchesPlainSlice holds the few-values backend, and
// the Sample it spills into, to the plain slice on the seed set.
func TestDistFewValuesMatchesPlainSlice(t *testing.T) {
	for _, c := range fewValuesCases {
		checkFewValues(t, c)
	}
}

// TestDistFewValuesBackend pins which backend a stream ends in: a
// Dist that has seen at most fewLimit distinct values and no NaN or −0
// keeps them in its table and nothing in a Sample; any more spills.
func TestDistFewValuesBackend(t *testing.T) {
	for _, tc := range []struct {
		vals    []float64
		spilled bool
	}{
		{[]float64{1}, false},
		{[]float64{0, 1, 2, 3, 4, 5, 6, 7}, false},
		{[]float64{0, 1, 2, 3, 4, 5, 6, 7, 8}, true},
		{[]float64{0, negZero}, true},
		{[]float64{1, math.NaN()}, true},
	} {
		var d Dist
		for range 3 {
			for _, x := range tc.vals {
				d.Add(x)
			}
		}
		if d.spilled != tc.spilled || (d.s.N() > 0) != tc.spilled || d.Retained() != 3*len(tc.vals) {
			t.Errorf("%v: spilled=%v sample=%d retained=%d, want spilled=%v",
				tc.vals, d.spilled, d.s.N(), d.Retained(), tc.spilled)
		}
	}
}

// TestDistFewValuesFold crosses exactLimit in table mode: the table
// folds into a sketch that equals an always-sketched Dist's bucket for
// bucket, so every percentile after the limit is the same bits, and the
// Dist retains nothing. The sketch's running sum is summed in another
// order and is not compared; no Dist answer reads it.
func TestDistFewValuesFold(t *testing.T) {
	vals := []float64{0.3, 0, -1e-12, 0.7}
	var d, always Dist
	always.useSketch()
	var ref refSample
	for i := 0; i < exactLimit+100; i++ {
		x := vals[i%3]
		if i%1000 == 999 {
			x = vals[3]
		}
		d.Add(x)
		always.Add(x)
		if i < exactLimit-1 {
			ref.Add(x)
		}
		if i == exactLimit-2 {
			if d.spilled || d.Retained() != exactLimit-1 {
				t.Fatalf("below the limit: spilled=%v retained=%d", d.spilled, d.Retained())
			}
			for p := 0.0; p <= 100; p += 0.5 {
				if got, want := d.Percentile(p), ref.Percentile(p); !sameBits(got, want) {
					t.Fatalf("below the limit P%g = %v, plain slice %v", p, got, want)
				}
			}
		}
	}
	if !d.Sketched() || d.Retained() != 0 || d.N() != always.N() {
		t.Fatalf("past the limit: sketched=%v retained=%d n=%d", d.Sketched(), d.Retained(), d.N())
	}
	a, b := *d.sk, *always.sk
	a.sum, b.sum = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("the table's fold differs from an always-sketched Dist:\n%+v\n%+v", a, b)
	}
	for p := 0.0; p <= 100; p += 0.5 {
		if got, want := d.Percentile(p), always.Percentile(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("P%g = %v, always-sketched %v", p, got, want)
		}
	}
}

// FuzzDistFewValues draws streams from k ∈ {1 … fewLimit+2} values,
// picked from ordinary values, ±0, NaN, infinities and tiny negative
// residues, and holds every percentile to the plain slice bit for bit
// (±0 compared with ==) while Adds and queries interleave.
func FuzzDistFewValues(f *testing.F) {
	for i, c := range fewValuesCases {
		f.Add(int64(i), uint8(len(c.vals)-1), uint16(c.n), uint8(c.every), uint16(c.reset))
	}
	specials := []float64{0, negZero, math.NaN(), math.Inf(1), math.Inf(-1),
		-1e-12, -2.220446049250313e-16, 1e-300, -5e-324}
	f.Fuzz(func(t *testing.T, seed int64, k uint8, n uint16, every uint8, reset uint16) {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, 1+int(k)%(fewLimit+2))
		for i := range vals {
			switch rng.Intn(4) {
			case 0:
				vals[i] = specials[rng.Intn(len(specials))]
			case 1:
				vals[i] = -float64(rng.Intn(8)) * 0.125
			default:
				vals[i] = float64(rng.Intn(1000)) * 0.001
			}
		}
		checkFewValues(t, fewValuesCase{name: "fuzz", vals: vals, n: int(n) % 3000,
			every: 1 + int(every)%64, reset: int(reset) % 2000, seed: seed})
	})
}
