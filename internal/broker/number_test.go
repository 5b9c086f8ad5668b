package broker

import (
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// jsonNumber is the JSON number grammar, the independent definition of what
// arrivalParser.number must consume.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// checkNumber holds the parser's scan + convert to strconv on s, read as a
// float and as an integer. A whole literal of the grammar, at most
// maxNumberLen bytes, is taken exactly when strconv accepts it, with
// strconv's bits, and consumed to its end; a longer one is declined. Any
// other input is declined or yields a grammar literal prefix of itself
// converted as strconv converts it.
func checkNumber(t testing.TB, s string) {
	whole := len(s) <= maxNumberLen && jsonNumber.MatchString(s)
	p := arrivalParser{b: []byte(s)}
	f, ok := p.float()
	lit := s[:p.i]
	want, err := strconv.ParseFloat(lit, 64)
	switch {
	case ok && (!jsonNumber.MatchString(lit) || err != nil || math.Float64bits(f) != math.Float64bits(want)):
		t.Fatalf("float %q: took %q as %v (%#x), strconv says %v (%#x), err %v",
			s, lit, f, math.Float64bits(f), want, math.Float64bits(want), err)
	case whole && (ok != (err == nil) || p.i != len(s)):
		t.Fatalf("float %q: taken %v after %d bytes, strconv err %v", s, ok, p.i, err)
	case len(s) > maxNumberLen && ok && p.i == len(s):
		t.Fatalf("float %q: took a literal longer than %d bytes", s, maxNumberLen)
	}
	p = arrivalParser{b: []byte(s)}
	n, ok := p.integer()
	lit = s[:p.i]
	wantN, err := strconv.ParseInt(lit, 10, strconv.IntSize)
	integral := whole && !strings.ContainsAny(s, ".eE")
	switch {
	case ok && (!jsonNumber.MatchString(lit) || strings.ContainsAny(lit, ".eE") || err != nil || int64(n) != wantN):
		t.Fatalf("integer %q: took %q as %d, strconv says %d, err %v", s, lit, n, wantN, err)
	case integral && (ok != (err == nil) || p.i != len(s)):
		t.Fatalf("integer %q: taken %v after %d bytes, strconv err %v", s, ok, p.i, err)
	}
	// The conversion itself, without the length cap: decline, or strconv's
	// bits.
	p = arrivalParser{b: []byte(s)}
	if num, _, ok := p.number(); ok {
		if f, ok := num.float64(); ok {
			want, err := strconv.ParseFloat(s[:p.i], 64)
			if err != nil || math.Float64bits(f) != math.Float64bits(want) {
				t.Fatalf("convert %q: %v (%#x), strconv says %v (%#x), err %v",
					s[:p.i], f, math.Float64bits(f), want, math.Float64bits(want), err)
			}
		}
	}
}

// numberEdges are the literals on either side of each line the conversion
// draws: zeros, 19 against 20 significant digits, the first integer a
// float64 cannot hold, leading fraction zeros, the ends of pow10Table and of
// Clinger's range, half-way cases, subnormals and overflow, and the length
// cap.
var numberEdges = []string{
	"0", "-0", "-0.0", "0.0", "0e0", "-0e-0", "0e999999", "-0.000e-400", "0.00000000000000000000000000001",
	"1", "-1", "9", "10", "1.5", "-2.5e-3",
	"9223372036854775807", "-9223372036854775808", "9223372036854775808", "-9223372036854775809",
	"1844674407370955161", "18446744073709551615", "18446744073709551616", "9999999999999999999", "99999999999999999999",
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740993.0", "90071992547409930e-1",
	"0.1", "0.10000000000000001", "0.1000000000000000055511151231257827",
	"0.0000000000000000000000000000000000012345678901234567", "0.000000000000000000001234567890123456789",
	"1e22", "1e23", "1e-22", "1e-23", "123456789e22", "4503599627370496e22",
	"1e-64", "1e-65", "9.999999999999999e-64", "1e63", "1e64", "1.7976931348623157e63",
	"2.2250738585072014e-308", "2.2250738585072011e-308", "4.9e-324", "5e-324", "1e-400",
	"1.7976931348623157e308", "1.7976931348623159e308", "1e309",
	"9007199254740993e-16", "9007199254740993e16", "1.00000000000000011102230246251565404236316680908203125",
	"0.6046602879796196", "14.850604730583193", "0.32022217381184537",
	"18446744073709551616000000000000",  // 2^64·10^12, 32 bytes: the mantissa wraps to 0
	"184467440737095516160000000000000", // 33 bytes
	"1e", "1.", ".5", "01", "-", "+1", "1e+", "--1", "1.5e3.2", "0x10", "1_000", "Inf", "NaN",
}

// TestParseNumberMatchesStrconv is the number fence: the scan + convert of
// every literal of the grammar returns strconv's bits and strconv's
// error-ness, consuming exactly the literal.
func TestParseNumberMatchesStrconv(t *testing.T) {
	for _, s := range numberEdges {
		checkNumber(t, s)
	}
	rng := rand.New(rand.NewSource(1))
	formats := []byte{'f', 'e', 'g'}
	for i := 0; i < 1<<20; i++ {
		// Random bits span every exponent; written out in full they are
		// hundreds of bytes, so only the scaled [0,1) values get 'f'.
		f, format := math.Float64frombits(rng.Uint64()), formats[1+rng.Intn(2)]
		if i&1 != 0 {
			f, format = rng.Float64()*math.Pow(10, float64(rng.Intn(50)-25)), formats[rng.Intn(3)]
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		prec := -1
		if i&2 != 0 {
			prec = rng.Intn(25)
		}
		checkNumber(t, strconv.FormatFloat(f, format, prec, 64))
	}
	digits := func(n int, lead bool) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		if lead && b[0] == '0' {
			b[0] = '1' + byte(rng.Intn(9))
		}
		return string(b)
	}
	for i := 0; i < 1<<17; i++ {
		n := 1 + rng.Intn(25)
		s := digits(n, true)
		if rng.Intn(3) == 0 {
			s = "0"
		}
		if rng.Intn(2) == 0 {
			s += "." + strings.Repeat("0", rng.Intn(12)) + digits(1+rng.Intn(25), false)
		}
		if rng.Intn(3) == 0 {
			s += "e" + []string{"", "+", "-"}[rng.Intn(3)] + strconv.Itoa(rng.Intn(400))
		}
		if rng.Intn(2) == 0 {
			s = "-" + s
		}
		checkNumber(t, s)
		checkNumber(t, digits(n, false)) // anything, leading zeros included
	}
	// Long digit runs: the mantissa wraps (10^64 ≡ 0 mod 2^64), the
	// significant-digit count must not.
	for _, run := range []string{"1" + strings.Repeat("0", 254), strings.Repeat("9", 255),
		"0." + strings.Repeat("0", 100) + "1" + strings.Repeat("0", 80), "1" + strings.Repeat("0", 63) + ".5"} {
		checkNumber(t, run)
		checkNumber(t, "-"+run)
	}
}

// TestPow10TableMatchesStrconv checks the built table, at its ends and
// inside the parse's window, against rows copied from strconv's
// detailedPowersOfTen, and that the window is a view of it.
func TestPow10TableMatchesStrconv(t *testing.T) {
	for _, row := range []struct {
		exp int
		lo  uint64
		hi  uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-22, 0x5324C68B12DD6338, 0xF1C90080BAF72CB1},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x0000000000000000, 0x8000000000000000},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := pow10s[row.exp-pow10sMin]; got != [2]uint64{row.lo, row.hi} {
			t.Errorf("1e%d: %#x, strconv has {%#x, %#x}", row.exp, got, row.lo, row.hi)
		}
	}
	for _, e := range []int{pow10Min, pow10Max} {
		if &pow10Table[e-pow10Min] != &pow10s[e-pow10sMin] {
			t.Errorf("pow10Table's 1e%d is not pow10s's", e)
		}
	}
}

// FuzzParseNumber: any input is declined or converted to strconv's bits.
func FuzzParseNumber(f *testing.F) {
	for _, s := range numberEdges {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkNumber(t, s) })
}

// literals returns each number literal of a JSON body, in order, with its
// scanned value.
func literals(tb testing.TB, body []byte) (lits [][]byte, nums []number) {
	for i := 0; i < len(body); i++ {
		if c := body[i]; c != '-' && c-'0' > 9 {
			continue
		}
		p := arrivalParser{b: body, i: i}
		n, _, ok := p.number()
		if !ok {
			tb.Fatalf("no number at byte %d of the body", i)
		}
		lits, nums = append(lits, body[i:p.i]), append(nums, n)
		i = p.i
	}
	return lits, nums
}

// TestParseNumberFastPathDecides pins the gain, not just the bits: on the
// body encoding/json marshals for the `batch` workload's arrivals, the exact
// conversion itself decides the literals. A fallback taken on every literal
// would pass every bit-equality test and give the whole gain back.
func TestParseNumberFastPathDecides(t *testing.T) {
	_, nums := literals(t, codecLoad(t, 256, 42).batchBody)
	fast := 0
	for _, n := range nums {
		if _, ok := n.float64(); ok {
			fast++
		}
	}
	if len(nums) < 256*10 || float64(fast) < 0.999*float64(len(nums)) {
		t.Fatalf("exact conversion decided %d of %d literals, want ≥ 99.9%%", fast, len(nums))
	}
}

// BenchmarkParseNumber converts the `batch` workload's literals by the
// parser's scan + convert and, for comparison, by strconv.ParseFloat.
func BenchmarkParseNumber(b *testing.B) {
	lits, _ := literals(b, codecLoad(b, 256, 42).batchBody)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := arrivalParser{b: lits[i%len(lits)]}
			if _, ok := p.float(); !ok {
				b.Fatal("declined")
			}
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := strconv.ParseFloat(string(lits[i%len(lits)]), 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}
