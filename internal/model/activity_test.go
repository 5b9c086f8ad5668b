package model

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"muaa/internal/geo"
)

func TestUniformActivity(t *testing.T) {
	var a UniformActivity
	for _, h := range []float64{0, 6.5, 23.99} {
		if a.Level(3, h) != 1 {
			t.Errorf("UniformActivity.Level(3, %g) != 1", h)
		}
	}
}

func TestDiurnalActivityPeaksAtConfiguredHour(t *testing.T) {
	d := DiurnalActivity{Peaks: map[int]float64{0: 8}}
	peak := d.Level(0, 8)
	trough := d.Level(0, 20)
	if peak <= trough {
		t.Errorf("peak %g not above trough %g", peak, trough)
	}
	if math.Abs(peak-1.0) > 1e-12 { // base 0.1 + amp 0.9 at cos=1
		t.Errorf("peak level = %g, want 1.0", peak)
	}
	if math.Abs(trough-0.1) > 1e-12 {
		t.Errorf("trough level = %g, want 0.1", trough)
	}
	// Unconfigured tags sit at the midline.
	if got := d.Level(99, 3); math.Abs(got-0.55) > 1e-12 {
		t.Errorf("default tag level = %g, want 0.55", got)
	}
}

func TestDiurnalActivityAlwaysPositive(t *testing.T) {
	d := DiurnalActivity{Peaks: map[int]float64{0: 0, 1: 12}}
	for h := 0.0; h < 24; h += 0.25 {
		for x := 0; x < 2; x++ {
			if d.Level(x, h) <= 0 {
				t.Fatalf("activity must stay positive, got %g at tag %d hour %g", d.Level(x, h), x, h)
			}
		}
	}
}

func pearsonCustomer(interests []float64) *Customer {
	return &Customer{Interests: interests}
}

func pearsonVendor(tags []float64) *Vendor {
	return &Vendor{Tags: tags}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	pp := PearsonPreference{}
	s := pp.Score(pearsonCustomer([]float64{0.1, 0.5, 0.9}), pearsonVendor([]float64{0.1, 0.5, 0.9}), 12)
	if math.Abs(s-1) > 1e-12 {
		t.Errorf("identical vectors must score 1, got %g", s)
	}
	s = pp.Score(pearsonCustomer([]float64{0.9, 0.5, 0.1}), pearsonVendor([]float64{0.1, 0.5, 0.9}), 12)
	if math.Abs(s+1) > 1e-12 {
		t.Errorf("reversed vectors must score -1, got %g", s)
	}
}

func TestPearsonDegenerateVectors(t *testing.T) {
	pp := PearsonPreference{}
	// Constant vectors have zero variance → score 0 by convention.
	if s := pp.Score(pearsonCustomer([]float64{0.5, 0.5}), pearsonVendor([]float64{0.1, 0.9}), 0); s != 0 {
		t.Errorf("constant customer vector must score 0, got %g", s)
	}
	if s := pp.Score(pearsonCustomer(nil), pearsonVendor(nil), 0); s != 0 {
		t.Errorf("empty vectors must score 0, got %g", s)
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.Float64(), rng.Float64()
		}
		pp := PearsonPreference{}
		s := pp.Score(pearsonCustomer(x), pearsonVendor(y), rng.Float64()*24)
		return s >= -1-1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearsonActivityWeighting(t *testing.T) {
	// With the mismatching coordinate de-weighted to (almost) nothing, the
	// correlation must approach the perfect agreement of the rest.
	x := []float64{0.2, 0.8, 0.9} // agrees with y on 0,1; clashes on 2
	y := []float64{0.2, 0.8, 0.0}
	full := PearsonPreference{}.Score(pearsonCustomer(x), pearsonVendor(y), 12)
	down := PearsonPreference{Activity: DiurnalActivity{
		Peaks: map[int]float64{2: 0}, // tag 2 peaks at midnight: nearly inactive at noon
		Base:  1e-9, Amp: 1,
	}}.Score(pearsonCustomer(x), pearsonVendor(y), 12)
	if down <= full {
		t.Errorf("de-weighting the clashing tag must raise the score: full=%g down=%g", full, down)
	}
}

func TestPearsonLengthMismatchPanics(t *testing.T) {
	const want = "model: interest vector length 1 vs tag vector length 2"
	for name, score := range map[string]func(){
		"Score": func() {
			PearsonPreference{}.Score(pearsonCustomer([]float64{1}), pearsonVendor([]float64{1, 2}), 0)
		},
		// The length check comes first, as it always has: an activity that
		// would panic too must not mask it.
		"Score, bad activity": func() {
			negative := activityFunc(func(int, float64) float64 { return -1 })
			PearsonPreference{Activity: negative}.Score(pearsonCustomer([]float64{1}), pearsonVendor([]float64{1, 2}), 0)
		},
	} {
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Errorf("%s: length mismatch panicked with %v, want %q", name, got, want)
				}
			}()
			score()
		}()
	}
}

// pearsonTwoLoop is Eq. 5 written out a second time — weights and both means
// in one pass, the three covariances in a second. Score, and under unit
// weights the prepared pair, must reproduce it bit for bit: the broker's
// golden transcripts hang off these bits.
func pearsonTwoLoop(act Activity, x, y []float64, hour float64) float64 {
	if len(x) == 0 {
		return 0
	}
	weights := make([]float64, len(x))
	var sumW, sumWX, sumWY float64
	for i := range x {
		w := act.Level(i, hour)
		weights[i] = w
		sumW += w
		sumWX += w * x[i]
		sumWY += w * y[i]
	}
	if sumW == 0 {
		return 0
	}
	mx, my := sumWX/sumW, sumWY/sumW
	var covXY, covXX, covYY float64
	for i := range x {
		w := weights[i]
		covXY += w * (x[i] - mx) * (y[i] - my)
		covXX += w * (x[i] - mx) * (x[i] - mx)
		covYY += w * (y[i] - my) * (y[i] - my)
	}
	if covXX <= 0 || covYY <= 0 {
		return 0
	}
	return covXY / math.Sqrt(covXX*covYY)
}

func TestPearsonPreparedMatchesTwoLoopBits(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	activities := map[string]Activity{
		"uniform":  UniformActivity{},
		"diurnal":  DiurnalActivity{Peaks: map[int]float64{0: 8, 2: 22, 5: 13.5}},
		"all-zero": activityFunc(func(int, float64) float64 { return 0 }),
		"sparse":   activityFunc(func(x int, _ float64) float64 { return float64(x % 2) }),
	}
	vec := func(n, kind int) []float64 {
		v := make([]float64, n)
		for i := range v {
			switch kind {
			case 0:
				v[i] = rng.Float64()
			case 1:
				v[i] = 0.25 // zero variance
			case 2:
				v[i] = float64(rng.Intn(2)) // repeated values, exact sums
			}
		}
		return v
	}
	for name, act := range activities {
		pp := PearsonPreference{Activity: act}
		var px, py UnitPearson // reused across lengths, as the broker's arena does
		for trial := 0; trial < 300; trial++ {
			n, hour := rng.Intn(12), rng.Float64()*24
			if trial%7 == 0 {
				n = 17 + rng.Intn(40) // past Score's stack buffer
			}
			x := vec(n, trial%3)
			px.Prepare(x)
			for k := 0; k < 4; k++ { // one prepare, several vendors
				y := vec(n, (trial+k)%3)
				want := math.Float64bits(pearsonTwoLoop(act, x, y, hour))
				if got := math.Float64bits(pp.Score(pearsonCustomer(x), pearsonVendor(y), hour)); got != want {
					t.Fatalf("%s n=%d: Score %x, two-loop %x", name, n, got, want)
				}
				if name != "uniform" {
					continue
				}
				py.Prepare(y)
				if got := math.Float64bits(unitScore(&px, &py)); got != want {
					t.Fatalf("n=%d: prepared score %x, two-loop %x", n, got, want)
				}
			}
		}
	}
}

// unitScore is Eq. 5 between two prepared vectors of one length, composed as
// the broker composes it: Cov against the other side's centred vector, then
// Correlate.
func unitScore(p, q *UnitPearson) float64 { return p.Correlate(p.Cov(q.d), q.cov) }

// unitScoreBits returns the prepared pair's score and the generic Score under
// uniform activity — the oracle — for one (interests, tags) pair.
func unitScoreBits(x, y []float64) (got, want float64) {
	var px, py UnitPearson
	px.Prepare(x)
	py.Prepare(y)
	oracle := PearsonPreference{Activity: UniformActivity{}}
	return unitScore(&px, &py), oracle.Score(pearsonCustomer(x), pearsonVendor(y), 12)
}

// sameScore is Float64bits equality, with any NaN equal to any NaN: the
// kernel drops a NaN score whatever its payload.
func sameScore(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// TestUnitPearsonMatchesScoreBits is the serving scorer's oracle test: the
// prepared unit-weight pair against PearsonPreference{UniformActivity{}}.Score,
// bit for bit, over random vectors and every degenerate shape the guards exist
// for.
func TestUnitPearsonMatchesScoreBits(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fill := func(n int, f func(i int) float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	uniform := func(int) float64 { return rng.Float64() }
	ramp := func(i int) float64 { return float64(i) / 8 }
	negZero := math.Copysign(0, -1)
	for _, n := range []int{0, 1, 8, 17, 256} {
		for trial := 0; trial < 50; trial++ {
			x, y := fill(n, uniform), fill(n, uniform)
			if got, want := unitScoreBits(x, y); !sameScore(got, want) {
				t.Fatalf("random n=%d: prepared %x, Score %x", n, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	for _, tc := range []struct {
		name string
		x, y []float64
		// sign is the sign the score must have; 2 skips the check.
		sign int
	}{
		{"both constant", fill(8, func(int) float64 { return 0.25 }), fill(8, func(int) float64 { return 0.7 }), 0},
		{"customer constant only", fill(8, func(int) float64 { return 0.25 }), fill(8, ramp), 0},
		{"vendor constant only", fill(8, ramp), fill(8, func(int) float64 { return 0.7 }), 0},
		{"all zeros", make([]float64, 8), make([]float64, 8), 0},
		{"negative zeros", fill(8, func(int) float64 { return negZero }), fill(8, ramp), 0},
		{"leading negative zero", []float64{negZero, 1, 0.5}, []float64{negZero, 0.5, 1}, 1},
		{"denormals", fill(8, func(i int) float64 { return float64(i) * 5e-324 }), fill(8, ramp), 2},
		{"denormals both", fill(8, func(i int) float64 { return float64(i) * 5e-324 }),
			fill(8, func(i int) float64 { return float64(7-i) * 5e-324 }), 2},
		{"product of variances overflows", fill(8, func(i int) float64 { return float64(i) * 1e154 }),
			fill(8, func(i int) float64 { return float64(i%3) * 1e154 }), 2},
		{"sum overflows", fill(8, func(i int) float64 { return float64(1+i%2) * 1e308 }), fill(8, ramp), 2},
		{"one huge tag", []float64{1e308, 0, 0, 0}, []float64{0.1, 0.2, 0.3, 0.4}, 2},
		{"anticorrelated", fill(8, ramp), fill(8, func(i int) float64 { return 1 - float64(i)/8 }), -1},
		{"correlated", fill(17, ramp), fill(17, func(i int) float64 { return 3 * float64(i) }), 1},
	} {
		got, want := unitScoreBits(tc.x, tc.y)
		if !sameScore(got, want) {
			t.Errorf("%s: prepared %g (%x), Score %g (%x)", tc.name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if sign := cmp.Compare(got, 0); tc.sign != 2 && sign != tc.sign {
			t.Errorf("%s: score %g, want sign %d", tc.name, got, tc.sign)
		}
	}
}

// FuzzUnitPearsonMatchesScore feeds the same comparison arbitrary bit
// patterns: the input is cut into float64s, the first half the interests and
// the second the tags, non-finite values included.
func FuzzUnitPearsonMatchesScore(f *testing.F) {
	floats := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(floats(0.9, 0.1, 0.4, 1, 0.2, 0.3))
	f.Add(floats(0.5, 0.5, 0.1, 0.9))
	f.Add(floats(math.Copysign(0, -1), 5e-324, 1e308, 1e308))
	f.Add(floats(1e154, 3e154, -1e154, 2e154, 0, 4e154))
	f.Add(floats(math.NaN(), 1, math.Inf(1), 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 16
		if n > 256 {
			n = 256
		}
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			y[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(n+i):]))
		}
		if got, want := unitScoreBits(x, y); !sameScore(got, want) {
			t.Fatalf("x=%v y=%v: prepared %x, Score %x", x, y, math.Float64bits(got), math.Float64bits(want))
		}
	})
}

// BenchmarkUnitPearsonScore is the serving path's per-candidate cost at the
// workloads' 8 tags: one dot product against a campaign prepared at
// registration (BenchmarkPearsonScoreOneShot/8 is the generic form's).
func BenchmarkUnitPearsonScore(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := make([]float64, 8), make([]float64, 8)
	for i := range x {
		x[i], y[i] = rng.Float64(), rng.Float64()
	}
	var px, py UnitPearson
	px.Prepare(x)
	py.Prepare(y)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scoreSink = unitScore(&px, &py)
	}
}

var scoreSink float64

// The one-shot Score is what every offline solver calls per (customer,
// vendor) pair through the Preference interface: up to 16 tags it must stay
// off the heap, and the benchmark shows its cost on short and long vectors.
func TestPearsonScoreShortVectorZeroAllocs(t *testing.T) {
	var p Preference = PearsonPreference{Activity: DiurnalActivity{}}
	u, v := pearsonCustomer(make([]float64, 16)), pearsonVendor(make([]float64, 16))
	if n := testing.AllocsPerRun(100, func() { p.Score(u, v, 12) }); n != 0 {
		t.Errorf("Score on 16 tags: %v allocs/op, want 0", n)
	}
}

func BenchmarkPearsonScoreOneShot(b *testing.B) {
	for _, n := range []int{8, 256} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, y := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y[i] = rng.Float64(), rng.Float64()
			}
			var p Preference = PearsonPreference{}
			u, v := pearsonCustomer(x), pearsonVendor(y)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Score(u, v, 12)
			}
		})
	}
}

func TestPearsonNegativeActivityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative activity must panic")
		}
	}()
	bad := activityFunc(func(int, float64) float64 { return -1 })
	PearsonPreference{Activity: bad}.Score(pearsonCustomer([]float64{1, 0}), pearsonVendor([]float64{0, 1}), 0)
}

// activityFunc adapts a function to the Activity interface for tests.
type activityFunc func(int, float64) float64

func (f activityFunc) Level(x int, h float64) float64 { return f(x, h) }

func TestTablePreference(t *testing.T) {
	tp := TablePreference{{0.1, 0.2}, {0.3, 0.4}}
	u := &Customer{ID: 1}
	v := &Vendor{ID: 0}
	if got := tp.Score(u, v, 5); got != 0.3 {
		t.Errorf("Score = %g, want 0.3", got)
	}
}

func TestProblemDefaultsToPearson(t *testing.T) {
	// A problem without an explicit Preference must use Pearson over the
	// entity vectors.
	p := &Problem{
		Customers: []Customer{{ID: 0, Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 1, ViewProb: 1,
			Interests: []float64{0.9, 0.1}}},
		Vendors: []Vendor{{ID: 0, Loc: geo.Point{X: 0.5, Y: 0.6}, Radius: 0.2, Budget: 5,
			Tags: []float64{0.8, 0.2}}},
		AdTypes: []AdType{{Name: "TL", Cost: 1, Effect: 1}},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.PrefScore(0, 0); math.Abs(got-1) > 1e-9 {
		t.Errorf("perfectly rank-correlated vectors must score 1, got %g", got)
	}
}
