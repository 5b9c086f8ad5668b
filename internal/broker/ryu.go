package broker

// Shortest float64 formatting for the reply renderer. The digits come from
// strconv's Ryū shortest core (ftoaryu.go: ryuFtoaShortest, computeBounds,
// mult128bitPow10, ryuDigits, ryuDigits32; Ulf Adams, "Ryū: Fast
// Float-to-String Conversion", PLDI 2018), specialised to float64 and run
// over this package's own table of 128-bit powers of ten. The caller lays
// them out straight into the reply, skipping strconv's decimalSlice copy and
// its per-byte appends.

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// pow10sMin and pow10sMax bound pow10s: strconv's detailedPowersOfTen range,
// wide enough for every power Ryū asks of a float64.
const pow10sMin, pow10sMax = -348, 347

// pow10s holds 10^e for e in [pow10sMin, pow10sMax] as strconv's
// detailedPowersOfTen does: the leading 128 bits rounded down, low word
// first. One pass over n = 0 … 348 writes the row of 10^n from 10^n itself
// and the row of 10^-n as 2^k / 10^n, with k making the quotient 128 bits
// long; its big.Ints are reused from row to row.
var pow10s = func() (t [pow10sMax - pow10sMin + 1][2]uint64) {
	var p, next, num, q, r big.Int
	ten := big.NewInt(10)
	var word [16]byte
	row := func(x *big.Int) [2]uint64 {
		x.FillBytes(word[:])
		return [2]uint64{binary.BigEndian.Uint64(word[8:]), binary.BigEndian.Uint64(word[:8])}
	}
	cur, nxt := p.SetInt64(1), &next
	for n := 0; n <= -pow10sMin; n++ { // cur = 10^n
		if n <= pow10sMax {
			if s := cur.BitLen() - 128; s > 0 {
				q.Rsh(cur, uint(s))
			} else {
				q.Lsh(cur, uint(-s))
			}
			t[n-pow10sMin] = row(&q)
		}
		if n > 0 {
			num.Lsh(num.SetInt64(1), uint(127+cur.BitLen()))
			q.QuoRem(&num, cur, &r)
			t[-n-pow10sMin] = row(&q)
		}
		nxt.Mul(cur, ten)
		cur, nxt = nxt, cur
	}
	return t
}()

// decimalSlice is strconv's: the value is 0.d[:nd] × 10^dp.
type decimalSlice struct {
	d      []byte
	nd, dp int
}

// ryuShortest writes the shortest decimal that reads back as mant × 2^exp
// (mant with its implicit bit) into d: strconv's ryuFtoaShortest.
func ryuShortest(d *decimalSlice, mant uint64, exp int) {
	if mant == 0 {
		d.nd, d.dp = 0, 0
		return
	}
	// An exact integer with fewer bits than the mantissa: the previous and
	// next integers are not admissible representations.
	if exp <= 0 && bits.TrailingZeros64(mant) >= -exp {
		mant >>= uint(-exp)
		ryuDigits(d, mant, mant, mant, true, false)
		return
	}
	ml, mc, mu, e2 := computeBounds(mant, exp)
	if e2 == 0 {
		ryuDigits(d, ml, mc, mu, true, false)
		return
	}
	// Find 10^q larger than 2^-e2, and multiply all three by it.
	q := mulByLog2Log10(-e2) + 1
	dl, _, dl0 := mult128bitPow10(ml, e2, q)
	dc, _, dc0 := mult128bitPow10(mc, e2, q)
	du, e2, du0 := mult128bitPow10(mu, e2, q)
	if q > 55 { // large positive powers of ten are not exact
		dl0, dc0, du0 = false, false, false
	}
	if q < 0 && q >= -24 { // division by a power of ten may be exact (5^25 has 59 bits)
		if divisibleByPower5(ml, -q) {
			dl0 = true
		}
		if divisibleByPower5(mc, -q) {
			dc0 = true
		}
		if divisibleByPower5(mu, -q) {
			du0 = true
		}
	}
	// Express (dl, dc, du) × 2^e2 as integers, keeping rounding hints.
	extra := uint(-e2)
	extraMask := uint64(1<<extra - 1)
	dl, fracl := dl>>extra, dl&extraMask
	dc, fracc := dc>>extra, dc&extraMask
	du, fracu := du>>extra, du&extraMask
	// du is allowed when truncated, or exact with an even binary mantissa.
	uok := !du0 || fracu > 0
	if du0 && fracu == 0 {
		uok = mant&1 == 0
	}
	if !uok {
		du--
	}
	// Is dc the correctly rounded mantissa, or dc+1? An exact product's
	// half rounds to even; a truncated one is below the ideal value.
	var cup bool
	if dc0 {
		cup = fracc > 1<<(extra-1) || (fracc == 1<<(extra-1) && dc&1 == 1)
	} else {
		cup = fracc>>(extra-1) == 1
	}
	// dl is allowed only when exact and the binary mantissa is even.
	if lok := dl0 && fracl == 0 && mant&1 == 0; !lok {
		dl++
	}
	c0 := dc0 && fracc == 0 // the trimmed digits of dc are zero
	ryuDigits(d, dl, dc, du, c0, cup)
	d.dp -= q
}

// mulByLog2Log10 is floor(x·log10(2)) for -1600 ≤ x ≤ 1600.
func mulByLog2Log10(x int) int { return (x * 78913) >> 18 }

// mulByLog10Log2 is floor(x·log2(10)) for -500 ≤ x ≤ 500.
func mulByLog10Log2(x int) int { return (x * 108853) >> 15 }

// computeBounds returns the interval (lower, central, upper) × 2^e2 a
// float64 mant × 2^exp stands for, as 55-bit integers.
func computeBounds(mant uint64, exp int) (lower, central, upper uint64, e2 int) {
	if mant != 1<<52 || exp == -1022-52 { // regular, or subnormal
		return 2*mant - 1, 2 * mant, 2*mant + 1, exp - 1
	}
	// The border of an exponent: the gap below is half the gap above.
	return 4*mant - 1, 4 * mant, 4*mant + 2, exp - 2
}

func ryuDigits(d *decimalSlice, lower, central, upper uint64, c0, cup bool) {
	lhi, llo := uint32(lower/1e9), uint32(lower%1e9)
	chi, clo := uint32(central/1e9), uint32(central%1e9)
	uhi, ulo := uint32(upper/1e9), uint32(upper%1e9)
	if uhi == 0 { // only low digits (subnormals)
		ryuDigits32(d, llo, clo, ulo, c0, cup, 8)
	} else if lhi < uhi { // truncate 9 digits at once
		if llo != 0 {
			lhi++
		}
		c0 = c0 && clo == 0
		cup = clo > 5e8 || (clo == 5e8 && cup)
		ryuDigits32(d, lhi, chi, uhi, c0, cup, 8)
		d.dp += 9
	} else {
		n := uint(9) // the high part (chi = uhi > 0), two digits at a time
		v := chi
		for ; v >= 100; v /= 100 {
			n -= 2
			d.d[n], d.d[n+1] = smallsString[2*(v%100)], smallsString[2*(v%100)+1]
		}
		if v >= 10 {
			n -= 2
			d.d[n], d.d[n+1] = smallsString[2*v], smallsString[2*v+1]
		} else {
			n--
			d.d[n] = byte(v) + '0'
		}
		d.d = d.d[n:]
		d.nd = int(9 - n)
		ryuDigits32(d, llo, clo, ulo, c0, cup, d.nd+8) // the low part
	}
	for d.nd > 0 && d.d[d.nd-1] == '0' { // trim trailing zeros
		d.nd--
	}
	for d.nd > 0 && d.d[0] == '0' { // and leading ones
		d.nd--
		d.dp--
		d.d = d.d[1:]
	}
}

// ryuDigits32 emits the decimal digits of a number below 1e9.
func ryuDigits32(d *decimalSlice, lower, central, upper uint32, c0, cup bool, endindex int) {
	if upper == 0 {
		d.dp = endindex + 1
		return
	}
	trimmed := 0
	cNextDigit := 0 // the last trimmed digit, for the round-up
	for upper > 0 {
		// l = ceil(lower/10^k), c = round(central/10^k), u = floor(upper/10^k);
		// stop when c leaves (l, u).
		l := (lower + 9) / 10
		c, cdigit := central/10, central%10
		u := upper / 10
		if l > u { // going below l is forbidden
			break
		}
		// central just below an integer ending in many zeros, which the
		// round-up usually hides.
		if l == c+1 && c < u {
			c++
			cdigit = 0
			cup = false
		}
		trimmed++
		c0 = c0 && cNextDigit == 0
		cNextDigit = int(cdigit)
		lower, central, upper = l, c, u
	}
	if trimmed > 0 {
		cup = cNextDigit > 5 ||
			(cNextDigit == 5 && !c0) ||
			(cNextDigit == 5 && c0 && central&1 == 1)
	}
	if central < upper && cup {
		central++
	}
	// The number's end is known: fill backwards, two digits at a time.
	endindex -= trimmed
	v := central
	n := endindex
	for n > d.nd {
		v1, v2 := v/100, v%100
		d.d[n] = smallsString[2*v2+1]
		d.d[n-1] = smallsString[2*v2+0]
		n -= 2
		v = v1
	}
	if n == d.nd {
		d.d[n] = byte(v + '0')
	}
	d.nd = endindex + 1
	d.dp = d.nd + trimmed
}

// mult128bitPow10 multiplies the 55-bit m × 2^e2 by 10^q: the result is
// m·P >> 119 with P the 128-bit row of pow10s, typically 63 or 64 bits
// wide, and exact reports that the dropped bits were all zero.
func mult128bitPow10(m uint64, e2, q int) (resM uint64, resE int, exact bool) {
	if q == 0 { // P = 1<<127
		return m << 8, e2 - 8, true
	}
	pow := pow10s[q-pow10sMin]
	if q < 0 { // inverse powers of ten must be rounded up
		pow[0]++
	}
	e2 += mulByLog10Log2(q) - 127 + 119
	l1, l0 := bits.Mul64(m, pow[0])
	h1, h0 := bits.Mul64(m, pow[1])
	mid, carry := bits.Add64(l1, h0, 0)
	h1 += carry
	return h1<<9 | mid>>55, e2, mid<<9 == 0 && l0 == 0
}

func divisibleByPower5(m uint64, k int) bool {
	if m == 0 {
		return true
	}
	for i := 0; i < k; i++ {
		if m%5 != 0 {
			return false
		}
		m /= 5
	}
	return true
}

const smallsString = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"
