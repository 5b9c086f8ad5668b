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

// Score implements Preference. The two vectors must have equal length; a
// mismatch panics, as it means the problem was assembled against two
// different taxonomies.
func (pp PearsonPreference) Score(u *Customer, v *Vendor, hour float64) float64 {
	if len(u.Interests) != len(v.Tags) { // before Prepare can panic on an activity level
		panic(lengthMismatch(len(u.Interests), len(v.Tags)))
	}
	var stack [16]float64 // keeps the one-shot call off the heap up to 16 tags
	pc := PearsonCustomer{w: stack[:]}
	pp.Prepare(&pc, u.Interests, hour)
	return pc.Score(v.Tags)
}

func lengthMismatch(interests, tags int) string {
	return fmt.Sprintf("model: interest vector length %d vs tag vector length %d", interests, tags)
}

// PearsonCustomer is the customer-side half of Eq. 5 at one hour: everything
// that does not depend on the vendor. A serving loop prepares it once per
// arrival and scores every candidate vendor against it; the weights buffer is
// retained across Prepare calls, so steady-state scoring allocates nothing.
// It keeps the prepared interest vector by reference, which must not change
// until the last Score against it. The zero value is ready for Prepare.
type PearsonCustomer struct {
	x    []float64 // the prepared interest vector, not a copy
	w    []float64 // [:len(x)] activity weights w_i = α_i(φ)
	sumW float64
	mx   float64 // weighted mean of x
}

// Prepare computes the customer-side terms for interest vector x at the given
// hour — the activity weights, Σw and the weighted mean of x — accumulated in
// the order the single-pass formula does, so Prepare + Score is that formula
// bit for bit. The weighted variance of x stays in Score's covariance loop:
// there it rides beside the two vendor-side sums at no extra latency, where a
// pass of its own would cost the one-shot PearsonPreference.Score one more
// dependent add chain over the vector.
func (pp PearsonPreference) Prepare(pc *PearsonCustomer, x []float64, hour float64) {
	act := pp.Activity
	if act == nil {
		act = UniformActivity{}
	}
	if cap(pc.w) < len(x) {
		pc.w = make([]float64, len(x))
	}
	w := pc.w[:len(x)]
	var sumW, sumWX float64 // locals: the sums are add-latency chains
	for i := range x {
		w[i] = act.Level(i, hour)
		if w[i] < 0 || math.IsNaN(w[i]) {
			panic(fmt.Sprintf("model: activity level %g for tag %d", w[i], i))
		}
		sumW += w[i]
		sumWX += w[i] * x[i]
	}
	pc.x, pc.sumW, pc.mx = x, sumW, 0
	if sumW != 0 {
		pc.mx = sumWX / sumW
	}
}

// Score returns Eq. 5 for the prepared customer against tag vector y, which
// must have the prepared vector's length; a mismatch panics.
func (pc *PearsonCustomer) Score(y []float64) float64 {
	x := pc.x
	if len(x) != len(y) {
		panic(lengthMismatch(len(x), len(y)))
	}
	w := pc.w[:len(x)]
	if pc.sumW == 0 { // also the empty vector
		return 0
	}
	var sumWY float64
	for i := range y {
		sumWY += w[i] * y[i]
	}
	mx, my := pc.mx, sumWY/pc.sumW
	var covXY, covXX, covYY float64
	for i := range y {
		covXY += w[i] * (x[i] - mx) * (y[i] - my)
		covXX += w[i] * (x[i] - mx) * (x[i] - mx)
		covYY += w[i] * (y[i] - my) * (y[i] - my)
	}
	if covXX <= 0 || covYY <= 0 {
		return 0
	}
	return covXY / math.Sqrt(covXX*covYY)
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
