package model

import (
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
	var pc PearsonCustomer
	PearsonPreference{}.Prepare(&pc, []float64{1}, 0)
	for name, score := range map[string]func(){
		"Score": func() {
			PearsonPreference{}.Score(pearsonCustomer([]float64{1}), pearsonVendor([]float64{1, 2}), 0)
		},
		"prepared": func() { pc.Score([]float64{1, 2}) },
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

// pearsonTwoLoop is Eq. 5 as Score computed it before the customer side was
// split out — weights and both means in one pass, the three covariances in a
// second. The prepared form must reproduce it bit for bit: the broker's golden
// transcripts hang off these bits.
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
		var pc PearsonCustomer // reused across lengths, as the broker's arena does
		for trial := 0; trial < 300; trial++ {
			n, hour := rng.Intn(12), rng.Float64()*24
			if trial%7 == 0 {
				n = 17 + rng.Intn(40) // past Score's stack buffer
			}
			x := vec(n, trial%3)
			pp.Prepare(&pc, x, hour)
			for k := 0; k < 4; k++ { // one prepare, several vendors
				y := vec(n, (trial+k)%3)
				want := math.Float64bits(pearsonTwoLoop(act, x, y, hour))
				if got := math.Float64bits(pc.Score(y)); got != want {
					t.Fatalf("%s n=%d: prepared score %x, two-loop %x", name, n, got, want)
				}
				if got := math.Float64bits(pp.Score(pearsonCustomer(x), pearsonVendor(y), hour)); got != want {
					t.Fatalf("%s n=%d: Score %x, two-loop %x", name, n, got, want)
				}
			}
		}
	}
}

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
