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
	var pc PearsonCustomer
	pp.Prepare(&pc, u.Interests, hour)
	return pc.Score(v.Tags)
}

// PearsonCustomer is the customer-side half of Eq. 5 at one hour: everything
// that does not depend on the vendor. A serving loop prepares it once per
// arrival and scores every candidate vendor against it; the buffers are
// retained across Prepare calls, so steady-state scoring allocates nothing.
// The zero value is ready for Prepare.
type PearsonCustomer struct {
	n     int
	buf   []float64 // [:n] activity weights w_i = α_i(φ); [n:2n] w_i · (x_i − m_x)
	sumW  float64
	covXX float64
}

// Prepare computes the customer-side terms for interest vector x at the given
// hour: the activity weights, Σw, and the weighted deviations and variance of
// x — in the order the single-pass formula accumulates them, so Prepare +
// Score is that formula bit for bit.
func (pp PearsonPreference) Prepare(pc *PearsonCustomer, x []float64, hour float64) {
	act := pp.Activity
	if act == nil {
		act = UniformActivity{}
	}
	n := len(x)
	if cap(pc.buf) < 2*n {
		pc.buf = make([]float64, 2*n)
	}
	pc.n, pc.sumW, pc.covXX = n, 0, 0
	w, wdx := pc.buf[:n], pc.buf[n:2*n]
	var sumWX float64
	for i := range x {
		w[i] = act.Level(i, hour)
		if w[i] < 0 || math.IsNaN(w[i]) {
			panic(fmt.Sprintf("model: activity level %g for tag %d", w[i], i))
		}
		pc.sumW += w[i]
		sumWX += w[i] * x[i]
	}
	if pc.sumW == 0 {
		return
	}
	mx := sumWX / pc.sumW
	for i := range x {
		dx := x[i] - mx
		wdx[i] = w[i] * dx
		pc.covXX += wdx[i] * dx
	}
}

// Score returns Eq. 5 for the prepared customer against tag vector y, which
// must have the prepared vector's length; a mismatch panics.
func (pc *PearsonCustomer) Score(y []float64) float64 {
	if pc.n != len(y) {
		panic(fmt.Sprintf("model: interest vector length %d vs tag vector length %d", pc.n, len(y)))
	}
	if pc.sumW == 0 { // also the empty vector
		return 0
	}
	w, wdx := pc.buf[:pc.n], pc.buf[pc.n:2*pc.n]
	var sumWY float64
	for i := range y {
		sumWY += w[i] * y[i]
	}
	my := sumWY / pc.sumW
	var covXY, covYY float64
	for i := range y {
		dy := y[i] - my
		covXY += wdx[i] * dy
		covYY += w[i] * dy * dy
	}
	if pc.covXX <= 0 || covYY <= 0 {
		return 0
	}
	return covXY / math.Sqrt(pc.covXX*covYY)
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
