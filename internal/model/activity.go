package model

import (
	"fmt"
	"math"
)

// Activity models the paper's α_x(φ): how active tag x is at timestamp φ
// (hours in [0, 24)). A coffee tag peaks in the morning; a nightclub tag at
// night. Activity levels weight the Pearson preference of Eq. 5.
type Activity interface {
	// Level returns α_x(φ) ≥ 0 for tag index x at hour φ.
	Level(x int, hour float64) float64
}

// UniformActivity treats every tag as fully active at all times, reducing
// Eq. 5 to the plain Pearson correlation of the two tag vectors.
type UniformActivity struct{}

// Level implements Activity; always 1.
func (UniformActivity) Level(int, float64) float64 { return 1 }

// DiurnalActivity gives each tag a sinusoidal daily cycle
//
//	α_x(φ) = Base + Amp·(1 + cos(2π(φ − Peak_x)/24))/2
//
// peaking at the tag's Peak hour and bottoming out 12 hours later. Tags
// without a configured peak are uniformly active at Base + Amp/2.
type DiurnalActivity struct {
	// Peaks maps tag index → peak hour in [0, 24).
	Peaks map[int]float64
	// Base is the activity floor; zero selects 0.1 so no tag is ever fully
	// inactive (Eq. 5 divides by Σα).
	Base float64
	// Amp is the swing above the floor; zero selects 0.9.
	Amp float64
}

// Level implements Activity.
func (d DiurnalActivity) Level(x int, hour float64) float64 {
	base, amp := d.Base, d.Amp
	if base == 0 {
		base = 0.1
	}
	if amp == 0 {
		amp = 0.9
	}
	peak, ok := d.Peaks[x]
	if !ok {
		return base + amp/2
	}
	return base + amp*(1+math.Cos(2*math.Pi*(hour-peak)/24))/2
}

// Preference scores s(u_i, v_j, φ) — the temporal preference of a customer
// for a vendor. Implementations must be safe for concurrent use: solvers
// evaluate preferences from worker goroutines.
type Preference interface {
	Score(u *Customer, v *Vendor, hour float64) float64
}

// PearsonPreference is the paper's Eq. 5: the activity-weighted Pearson
// correlation coefficient of the customer's interest vector and the vendor's
// tag vector. Scores lie in [-1, 1]; degenerate vectors (zero weighted
// variance) score 0.
type PearsonPreference struct {
	Activity Activity
}

// Score implements Preference: weights and both weighted means in one pass,
// the three covariances in a second. The two vectors must have equal length;
// a mismatch panics, as it means the problem was assembled against two
// different taxonomies.
func (pp PearsonPreference) Score(u *Customer, v *Vendor, hour float64) float64 {
	x, y := u.Interests, v.Tags
	if len(x) != len(y) { // before an activity level can panic
		panic(lengthMismatch(len(x), len(y)))
	}
	act := pp.Activity
	if act == nil {
		act = UniformActivity{}
	}
	var stack [16]float64 // keeps the call off the heap up to 16 tags
	w := stack[:]
	if len(x) > len(w) {
		w = make([]float64, len(x))
	}
	w = w[:len(x)]
	var sumW, sumWX, sumWY float64
	for i := range x {
		w[i] = act.Level(i, hour)
		if w[i] < 0 || math.IsNaN(w[i]) {
			panic(fmt.Sprintf("model: activity level %g for tag %d", w[i], i))
		}
		sumW += w[i]
		sumWX += w[i] * x[i]
		sumWY += w[i] * y[i]
	}
	if sumW == 0 { // also the empty vector
		return 0
	}
	mx, my := sumWX/sumW, sumWY/sumW
	var covXY, covXX, covYY float64
	for i := range x {
		covXY += w[i] * (x[i] - mx) * (y[i] - my)
		covXX += w[i] * (x[i] - mx) * (x[i] - mx)
		covYY += w[i] * (y[i] - my) * (y[i] - my)
	}
	if covXX <= 0 || covYY <= 0 {
		return 0
	}
	return covXY / math.Sqrt(covXX*covYY)
}

func lengthMismatch(interests, tags int) string {
	return fmt.Sprintf("model: interest vector length %d vs tag vector length %d", interests, tags)
}

// UnitPearson is one side of Eq. 5 under unit activity weights (α ≡ 1, where
// the weighted correlation is the plain Pearson coefficient): a vector centred
// on its mean, and its sum of squares. Everything in it depends on that one
// vector only, so the serving broker prepares a campaign's once at
// registration — and keeps the fleet's back to back in one slab, read through
// Vector — and an arrival's once per arrival; a candidate then costs Cov
// against its slab run and Correlate on the result. Prepare, Cov and Correlate
// evaluate the expressions of PearsonPreference{UniformActivity{}}.Score in
// the same order — a weight of 1.0 multiplies exactly — so Correlate(Cov(…))
// returns that score bit for bit (TestUnitPearsonMatchesScoreBits). The zero
// value is the empty vector; Prepare reuses the buffer, so a retained value
// allocates nothing in steady state.
type UnitPearson struct {
	d   []float64 // v[i] − mean(v)
	cov float64   // Σ d[i]·d[i]
}

// Prepare centres v. It keeps no reference to v.
func (p *UnitPearson) Prepare(v []float64) {
	var sum float64
	for _, vi := range v {
		sum += vi
	}
	mean := sum / float64(len(v))
	if cap(p.d) < len(v) {
		p.d = make([]float64, len(v))
	}
	d := p.d[:len(v)]
	var cov float64
	for i, vi := range v {
		d[i] = vi - mean
		cov += d[i] * d[i]
	}
	p.d, p.cov = d, cov
}

// Vector returns the centred vector and its sum of squares. The slice is the
// receiver's buffer: valid until the next Prepare, not to be written.
func (p *UnitPearson) Vector() (d []float64, cov float64) { return p.d, p.cov }

// Cov returns Σ d[i]·dy[i] against the other side's centred vector, which
// must have the receiver's length; a shorter one panics.
func (p *UnitPearson) Cov(dy []float64) float64 {
	dx := p.d
	dy = dy[:len(dx)]
	var covXY float64
	for i := range dx {
		covXY += dx[i] * dy[i]
	}
	return covXY
}

// Correlate turns a covariance from Cov and the other side's sum of squares
// into Eq. 5. The product of the two sums of squares is formed per call, as
// the generic form does: the square root of a product is not the product of
// square roots in floating point.
func (p *UnitPearson) Correlate(covXY, covYY float64) float64 {
	if p.cov <= 0 || covYY <= 0 { // also the empty vector
		return 0
	}
	return covXY / math.Sqrt(p.cov*covYY)
}

// TablePreference looks preference scores up in a dense table indexed by
// [customer][vendor], ignoring the timestamp. It reproduces settings — like
// the paper's worked Example 1 (Table II) — where preferences are given
// directly rather than derived from tag vectors.
type TablePreference [][]float64

// Score implements Preference.
func (tp TablePreference) Score(u *Customer, v *Vendor, _ float64) float64 {
	return tp[u.ID][v.ID]
}
