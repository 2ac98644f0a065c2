package sim

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// checkJSONFloat asserts that appendJSONFloat writes json.Marshal's
// bytes for the finite float64 f, after a prefix it must leave alone.
func checkJSONFloat(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("%b: json.Marshal: %v", math.Float64bits(f), err)
	}
	if got := appendJSONFloat([]byte("x"), f); string(got[1:]) != string(want) || got[0] != 'x' {
		t.Fatalf("bits %#016x: got %q, want %q", math.Float64bits(f), got[1:], want)
	}
}

// TestJSONFloatSweep checks the writer against json.Marshal over every
// binary exponent, subnormals included, with the boundary mantissas of
// each (0, which at a power of two is Schubfach's irregular c = 2^52
// case, 1, 2 and the top three) and 200 seeded random ones, alternating
// the sign; then over the smallest subnormals one by one, where the
// decimal has one to four digits and Java's two-digit rule would show;
// then over the integers up to 2^16 (the writer's integer path), those
// times 1e15 (past it) and over 1e9 (fractions).
func TestJSONFloatSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const top = cMin - 1
	for bq := uint64(0); bq < 0x7ff; bq++ {
		mants := []uint64{0, 1, 2, 3, 1 << 51, top - 2, top - 1, top}
		for i := 0; i < 200; i++ {
			mants = append(mants, rng.Uint64()&top)
		}
		for i, m := range mants {
			checkJSONFloat(t, math.Float64frombits(uint64(i&1)<<63|bq<<mantBits|m))
		}
	}
	for c := uint64(1); c <= 5000; c++ {
		checkJSONFloat(t, math.Float64frombits(c))
	}
	for i := 1; i <= 1<<16; i++ {
		checkJSONFloat(t, float64(i))
		checkJSONFloat(t, float64(i)*1e15)
		checkJSONFloat(t, float64(i)/1e9)
	}
}

// TestFloorLogs checks the fixed-point logarithms against math/big at
// every exponent Schubfach gives them: flog10Pow2 and
// flog10ThreeQuartersPow2 at every binary exponent q of a float64, and
// flog2Pow10 at every −k the table holds.
func TestFloorLogs(t *testing.T) {
	// floorLog10 is ⌊log10(num/den)⌋ for positive integers.
	floorLog10 := func(num, den *big.Int) int {
		k := len(num.String()) - len(den.String())
		ten := big.NewInt(10)
		for {
			// Is 10^k ≤ num/den < 10^(k+1)?
			lo, hi := new(big.Int).Set(den), new(big.Int).Set(num)
			if k >= 0 {
				lo.Mul(lo, new(big.Int).Exp(ten, big.NewInt(int64(k)), nil))
			} else {
				hi.Mul(hi, new(big.Int).Exp(ten, big.NewInt(int64(-k)), nil))
			}
			switch {
			case lo.Cmp(hi) > 0:
				k--
			case new(big.Int).Mul(lo, ten).Cmp(hi) <= 0:
				k++
			default:
				return k
			}
		}
	}
	pow2 := func(e int) (num, den *big.Int) {
		num, den = big.NewInt(1), big.NewInt(1)
		if e >= 0 {
			return num.Lsh(num, uint(e)), den
		}
		return num, den.Lsh(den, uint(-e))
	}
	for q := qMin; q <= 971; q++ {
		num, den := pow2(q)
		if got, want := flog10Pow2(q), floorLog10(num, den); got != want {
			t.Errorf("flog10Pow2(%d) = %d, want %d", q, got, want)
		}
		num.Mul(num, big.NewInt(3))
		den.Mul(den, big.NewInt(4))
		if got, want := flog10ThreeQuartersPow2(q), floorLog10(num, den); got != want {
			t.Errorf("flog10ThreeQuartersPow2(%d) = %d, want %d", q, got, want)
		}
	}
	for k := kMin; k <= kMax; k++ {
		// ⌊log2(10^e)⌋ is BitLen−1 for e ≥ 0 and −BitLen(10^−e) below.
		e := -k
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		want := p.BitLen() - 1
		if e < 0 {
			want = -p.BitLen()
		}
		if got := flog2Pow10(e); got != want {
			t.Errorf("flog2Pow10(%d) = %d, want %d", e, got, want)
		}
	}
}

// FuzzJSONFloat checks the writer against json.Marshal(float64) on
// arbitrary bit patterns, through the probe's appendFloat twice, so the
// second call is a memo hit: ±0, subnormals, both form switches (1e-6
// and 1e21) and their neighbours, powers of two, where the float below
// is half a step away, and NaN and ±Inf, which must write nothing and
// latch json.Marshal's error.
func FuzzJSONFloat(f *testing.F) {
	seeds := []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-323, 1e-322, 2.2250738585072009e-308, 2.2250738585072014e-308,
		1e-6, 1e21, -1e-6, -1e21, 1e-7, 1e20, 1, 2, 0.5, 0x1p60, 0x1p-1022, 0x1p1023, 9007199254740992,
		math.MaxFloat64, 907.3329113, 0.4129, 1.2345678901234567e-6, 123456789012345680000,
	}
	for _, v := range seeds {
		for _, g := range []float64{v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1))} {
			f.Add(math.Float64bits(g))
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, fb uint64) {
		v := math.Float64frombits(fb)
		want, wantErr := json.Marshal(v)
		p := NewJSONLProbe(io.Discard)
		for pass := 0; pass < 2; pass++ {
			got := p.appendFloat(nil, `"k":`, v)
			if wantErr != nil {
				if string(got) != `"k":` || p.err == nil || p.err.Error() != wantErr.Error() {
					t.Fatalf("bits %#016x: wrote %q, latched %v; want only the key and %v", fb, got, p.err, wantErr)
				}
				return
			}
			if !bytes.Equal(got, append([]byte(`"k":`), want...)) {
				t.Fatalf("bits %#016x, pass %d: got %q, want %q", fb, pass, got, want)
			}
		}
	})
}
