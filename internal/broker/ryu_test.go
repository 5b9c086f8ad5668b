package broker

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"

	"muaa/internal/model"
)

// checkRenderFloat holds replyBuf.float to encoding/json on f: the same
// bytes for a finite value, appended after what the buffer already holds,
// and errNonFinite with nothing written for NaN and ±Inf.
func checkRenderFloat(t testing.TB, f float64) {
	r := replyBuf{b: []byte("x")}
	r.float(f)
	want, err := json.Marshal(f)
	switch {
	case err != nil && (r.err != errNonFinite || string(r.b) != "x"):
		t.Fatalf("%v (%#x): wrote %q, err %v; encoding/json refuses it", f, math.Float64bits(f), r.b, r.err)
	case err == nil && (r.err != nil || string(r.b) != "x"+string(want)):
		t.Fatalf("%v (%#x): wrote %q, err %v; encoding/json writes %q", f, math.Float64bits(f), r.b[1:], r.err, want)
	}
}

// floatEdges are the values on either side of each line the formatter
// draws: zeros, the subnormal range and its ends, the largest finite value,
// integers around 2^53, and the fixed/exponential switch points at 1e-6 and
// 1e21 (the neighbours are added by the test).
var floatEdges = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
	0x1p-1022, math.Nextafter(0x1p-1022, 0), math.MaxFloat64,
	1 << 53, 1<<53 - 1, 1<<53 + 2, 1 << 54, 1 << 63, 1 << 64,
	1e-6, 1e21, 1e-7, 1e20, 9.999999999999999e-7, 1.0000000000000001e-6, 1e22, 1e23,
	0.1, 0.2, 0.3, 1.0 / 3, 2.0 / 3, 5e-324, 1.7976931348623157e308, 123456789012345680,
}

// TestRenderFloatMatchesEncodingJSON is the formatter's fence: over ≥ 1 M
// values — random bit patterns, the `batch` reply's regime (utilities,
// efficiencies and costs of a few digits before the point and 16–17
// significant digits), every power of ten and the edges above, each with
// its neighbours — the reply's bytes are encoding/json's.
func TestRenderFloatMatchesEncodingJSON(t *testing.T) {
	n := 0
	check := func(f float64) {
		for _, g := range []float64{f, -f, math.Nextafter(f, math.Inf(1)), math.Nextafter(f, math.Inf(-1))} {
			checkRenderFloat(t, g)
			n++
		}
	}
	for _, f := range floatEdges {
		check(f)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkRenderFloat(t, f)
	}
	for e := -323; e <= 308; e++ {
		f, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		check(f)
	}
	for k := uint64(0); k < 1<<10; k++ { // integers around 2^53, and subnormals
		check(float64(1<<53 - 512 + k))
		check(math.Float64frombits(k))
		check(math.Float64frombits(1<<52 - k))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<17; i++ {
		check(math.Float64frombits(rng.Uint64()))
		check(rng.Float64() * math.Pow(10, float64(rng.Intn(9)-4)))
	}
	if n < 1_000_000 {
		t.Fatalf("checked %d values, want ≥ 1 M", n)
	}
}

// FuzzRenderFloat: any float64 renders as encoding/json renders it, or is
// refused as it is.
func FuzzRenderFloat(f *testing.F) {
	for _, v := range floatEdges {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) { checkRenderFloat(t, math.Float64frombits(u)) })
}

// TestPow10sMatchPerRowForm checks the one-pass table generator against the
// per-row form on every row: 10^|e| by Exp, 2^k / 10^-e for a negative e,
// then the leading 128 bits.
func TestPow10sMatchPerRowForm(t *testing.T) {
	lo64 := new(big.Int).SetUint64(math.MaxUint64)
	for e := pow10sMin; e <= pow10sMax; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		if e < 0 {
			p.Quo(new(big.Int).Lsh(big.NewInt(1), uint(127+p.BitLen())), p)
		}
		p.Lsh(p, 128)
		p.Rsh(p, uint(p.BitLen()-128))
		want := [2]uint64{new(big.Int).And(p, lo64).Uint64(), p.Rsh(p, 64).Uint64()}
		if got := pow10s[e-pow10sMin]; got != want {
			t.Fatalf("1e%d: %#x, the per-row form gives %#x", e, got, want)
		}
	}
}

// replyFloats returns the floats a rendered `batch` reply formats, in
// order: the utility and efficiency of each offer. Their costs are the
// catalog's, which NewAPI renders once.
func replyFloats(tb testing.TB) []float64 {
	fx := codecLoad(tb, 256, 42)
	var fs []float64
	for _, r := range fx.api.broker.ArriveBatch(fx.arrivals) {
		for _, o := range r.Offers {
			if o.Model != model.BillingFixed || o.Cost != fx.api.adTypes[o.AdType].catalog {
				tb.Fatalf("offer %+v is not fixed-billed at its catalog cost", o)
			}
			fs = append(fs, o.Utility, o.Efficiency)
		}
	}
	if len(fs) == 0 {
		tb.Fatal("the batch drew no offers")
	}
	return fs
}

// BenchmarkRenderFloat renders the `batch` reply's floats by replyBuf.float
// and, for comparison, by strconv.AppendFloat's shortest 'f' form.
func BenchmarkRenderFloat(b *testing.B) {
	fs := replyFloats(b)
	b.Run("fused", func(b *testing.B) {
		r := replyBuf{b: make([]byte, 0, 64)}
		for i := 0; i < b.N; i++ {
			r.b = r.b[:0]
			r.float(fs[i%len(fs)])
		}
	})
	b.Run("strconv", func(b *testing.B) {
		buf := make([]byte, 0, 64)
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], fs[i%len(fs)], 'f', -1, 64)
		}
	})
}
