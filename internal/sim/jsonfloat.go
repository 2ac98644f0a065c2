package sim

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// appendJSONFloat appends the finite float64 f exactly as encoding/json
// writes it: the shortest decimal that reads back as f (the one nearest
// f when several are that short, the even one on a tie), in strconv's
// 'f' form, or, for a nonzero f with |f| < 1e-6 or |f| ≥ 1e21, in its
// 'e' form with the exponent unpadded (1e-7, 1.5e+21), as encoding/json
// trims it.
//
// The digits come from Schubfach (R. Giulietti, "The Schubfach way to
// render doubles", 2020; the algorithm of Java's Double.toString since
// JDK 19), which finds the same shortest, nearest decimal as strconv's
// Ryū-based shortest mode from three 128-bit products. Java's rule
// that every output has at least two digits (its C_TINY case, and
// skipping the coarser candidate below s = 100) is left out: Go prints
// the smallest subnormal as 5e-324 where Java prints 4.9E-324.
// TestJSONFloatSweep and FuzzJSONFloat hold the bytes to json.Marshal's.
func appendJSONFloat(b []byte, f float64) []byte {
	fb := math.Float64bits(f)
	if fb>>63 != 0 {
		b = append(b, '-')
		fb &^= 1 << 63
	}
	if fb == 0 {
		return append(b, '0')
	}
	d, e := shortestDecimal(fb)

	// The digits of d, most significant first, without trailing zeros:
	// f is 0.digits × 10^dp.
	var buf [20]byte
	i := len(buf)
	for d >= 1e8 {
		q := d / 1e8
		put8Digits(&buf, i, uint32(d-q*1e8))
		i -= 8
		d = q
	}
	x := uint32(d)
	for x >= 100 {
		q := x / 100
		i -= 2
		putPair(&buf, i, x-100*q)
		x = q
	}
	if x >= 10 {
		i -= 2
		putPair(&buf, i, x)
	} else {
		i--
		buf[i] = byte('0' + x)
	}
	digs := buf[i:]
	for digs[len(digs)-1] == '0' {
		digs = digs[:len(digs)-1]
		e++
	}
	n := len(digs)
	dp := n + e

	if abs := math.Float64frombits(fb); abs < 1e-6 || abs >= 1e21 {
		b = append(b, digs[0])
		if n > 1 {
			b = append(append(b, '.'), digs[1:]...)
		}
		b = append(b, 'e')
		if dp > 0 {
			b = append(b, '+')
		}
		return strconv.AppendInt(b, int64(dp-1), 10)
	}
	switch {
	case dp <= 0: // 0.000ddd; dp ≥ -5 since |f| ≥ 1e-6
		b = append(append(b, "0."...), zeros[:-dp]...)
		return append(b, digs...)
	case dp >= n: // ddd000; dp ≤ 21 since |f| < 1e21
		return append(append(b, digs...), zeros[:dp-n]...)
	default:
		b = append(append(b, digs[:dp]...), '.')
		return append(b, digs[dp:]...)
	}
}

// put8Digits writes the eight decimal digits of x < 1e8, leading zeros
// included, to buf[i-8:i].
func put8Digits(buf *[20]byte, i int, x uint32) {
	hi, lo := x/10000, x%10000
	putPair(buf, i-8, hi/100)
	putPair(buf, i-6, hi%100)
	putPair(buf, i-4, lo/100)
	putPair(buf, i-2, lo%100)
}

// putPair writes the two decimal digits of x < 100 to buf[i:i+2].
func putPair(buf *[20]byte, i int, x uint32) {
	buf[i], buf[i+1] = digitPairs[2*x], digitPairs[2*x+1]
}

// digitPairs holds "00" through "99", so digits are written two at a
// time; zeros pads the 'f' form.
const (
	digitPairs = "00010203040506070809" + "10111213141516171819" + "20212223242526272829" +
		"30313233343536373839" + "40414243444546474849" + "50515253545556575859" +
		"60616263646566676869" + "70717273747576777879" + "80818283848586878889" +
		"90919293949596979899"
	zeros = "000000000000000000000"
)

// The float64 format, in Schubfach's terms: a positive finite value is
// c·2^q with c < 2^53, q ≥ qMin, and c ≥ cMin unless q = qMin.
const (
	mantBits = 52
	cMin     = 1 << mantBits
	qMin     = -1074
	// kMin and kMax bound the decimal exponent k that shortestDecimal
	// looks up in schubfachG: k = ⌊log10(2^q)⌋ (or ⌊log10(¾·2^q)⌋) for
	// q from qMin to the largest exponent, 971.
	kMin = -324
	kMax = 292
)

// shortestDecimal returns the shortest decimal d·10^e that rounds to
// the positive finite float64 with bit pattern fb, nearest to it among
// those that short, the even one on a tie. d may end in zeros.
func shortestDecimal(fb uint64) (d uint64, e int) {
	t := fb & (cMin - 1)
	bq := int(fb >> mantBits)
	if bq == 0 {
		return schubfach(qMin, t) // subnormal
	}
	c := cMin | t
	// An integer below 2^53 is its own shortest decimal.
	if mq := 1 - qMin - bq; 0 < mq && mq <= mantBits {
		if i := c >> mq; i<<mq == c {
			return i, 0
		}
	}
	return schubfach(bq-1+qMin, c)
}

// schubfach returns the shortest decimal in the rounding interval Rv of
// v = c·2^q, nearest v among those that short, the even one on a tie.
// Rv is [v − ½·2^q, v + ½·2^q], closed when c is even (round half to
// even reads its ends back as v) and open when c is odd; at a power of
// two its lower half is a quarter step, since the float below is half a
// step away.
//
// Every quantity is scaled by 4·10^-k: vb, vbl and vbr approximate v
// and Rv's ends from below, with the sticky low bit set when the
// product was inexact (the paper's rop), which the paper shows decides
// every comparison below as the exact values would. k is chosen so that
// Rv is narrower than 10^(k+1) but at least 10^k wide: it holds at most
// one multiple of 10^(k+1) and at least one of 10^k.
func schubfach(q int, c uint64) (d uint64, e int) {
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != cMin || q == qMin {
		cbl = cb - 2
		k = flog10Pow2(q)
	} else {
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	g := &schubfachG[k-kMin]
	h := q + flog2Pow10(-k) + 2
	vb := rop(g, cb<<h)
	vbl := rop(g, cbl<<h)
	vbr := rop(g, cbr<<h)

	// The multiples of 10^(k+1) either side of v: one of them, in Rv
	// alone, is the shortest decimal there.
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	// Otherwise the multiples of 10^k either side: one or both are in Rv.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop is cp·g·2^-127 rounded to odd: its floor, with the low bit set
// when the product is not an integer. g is g1·2^63 + g0.
func rop(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	const mask63 = 1<<63 - 1
	return vbp | (z&mask63+mask63)>>63
}

// flog10Pow2 is ⌊log10(2^e)⌋, flog10ThreeQuartersPow2 is ⌊log10(¾·2^e)⌋
// and flog2Pow10 is ⌊log2(10^e)⌋, each a fixed-point product exact over
// the exponents a float64 takes (the paper's section 6; TestFloorLogs
// checks every one against math/big).
func flog10Pow2(e int) int { return (e * 661_971_961_083) >> 41 }

func flog10ThreeQuartersPow2(e int) int { return (e*661_971_961_083 - 274_743_187_321) >> 41 }

func flog2Pow10(e int) int { return (e * 913_124_641_741) >> 38 }

// schubfachG holds g(k) = ⌊10^-k·2^-r⌋ + 1 for k from kMin to kMax, as
// {g1, g0} = {g >> 63, g mod 2^63}, with r the exponent that puts g in
// [2^125, 2^126): r = ⌊log2(10^-k)⌋ − 125. It is computed exactly with
// math/big when the package loads, in well under a millisecond.
var schubfachG = func() (tab [kMax - kMin + 1][2]uint64) {
	one := big.NewInt(1)
	ten := big.NewInt(10)
	mask := new(big.Int).Sub(new(big.Int).Lsh(one, 63), one)
	pow := big.NewInt(1) // 10^|k|
	g := new(big.Int)
	set := func(k int) {
		if k <= 0 {
			// 10^-k is the integer pow: g = ⌊pow·2^-r⌋ + 1.
			if r := pow.BitLen() - 126; r >= 0 {
				g.Rsh(pow, uint(r))
			} else {
				g.Lsh(pow, uint(-r))
			}
		} else {
			// 10^-k = 1/pow, and pow is no power of two:
			// ⌊log2(1/pow)⌋ = −pow.BitLen(), so g = ⌊2^(BitLen+125)/pow⌋ + 1.
			g.Quo(g.Lsh(one, uint(pow.BitLen()+125)), pow)
		}
		g.Add(g, one)
		tab[k-kMin] = [2]uint64{new(big.Int).Rsh(g, 63).Uint64(), new(big.Int).And(g, mask).Uint64()}
	}
	for k := 0; k >= kMin; k-- {
		set(k)
		pow.Mul(pow, ten)
	}
	pow.SetInt64(10)
	for k := 1; k <= kMax; k++ {
		set(k)
		pow.Mul(pow, ten)
	}
	return tab
}()
