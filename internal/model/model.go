// Package model defines the MUAA problem domain of Section II: spatial
// customers and vendors (Definitions 1–2), ad types (Definition 3), ad
// assignment instances (Definition 4), the temporal-preference and utility
// model (Eqs. 4–5), and the MUAA problem itself with its four feasibility
// constraints (Definition 5). Solvers live in package core; this package is
// pure data plus the utility mathematics and a feasibility checker every
// solver's output is validated against.
package model

import (
	"fmt"
	"math"

	"muaa/internal/geo"
)

// AdType is one way the broker can push an ad (text link, photo link, ...):
// Definition 3. Cost is the price c_k the vendor pays per sent ad and
// Effect the utility effectiveness β_k. The paper assumes cost-monotone
// effectiveness (pricier formats work better); Problem.Validate enforces
// positive cost and non-negative effect but not monotonicity, which is a
// property of the catalog, not a correctness requirement.
type AdType struct {
	Name   string
	Cost   float64
	Effect float64
}

// Customer is a spatial customer u_i (Definition 1): a location at its
// arrival timestamp, a capacity a_i bounding how many ads it accepts, a
// probability p_i of viewing received ads, and an interest vector ψ_i over
// the tag universe.
type Customer struct {
	ID        int32
	Loc       geo.Point
	Capacity  int
	ViewProb  float64
	Interests []float64
	// Arrival is the customer's timestamp φ in hours within [0, 24). For
	// offline solvers it selects the activity profile; for online solvers it
	// is also the stream position (ties broken by slice order).
	Arrival float64
}

// Vendor is a spatial vendor v_j (Definition 2): a fixed location, a
// circular advertising range of radius Radius, an advertising budget, and a
// tag vector ψ_j describing what the vendor is.
type Vendor struct {
	ID     int32
	Loc    geo.Point
	Radius float64
	Budget float64
	Tags   []float64
	// Paused excludes the vendor from assignment entirely: solvers must not
	// serve it and Check rejects instances that do. The audit layer marks
	// campaigns paused at the end of the audited stream so the offline
	// counterfactual cannot spend budgets the online broker was forbidden to
	// touch.
	Paused bool
}

// Instance is one ad assignment ⟨u_i, v_j, τ_k⟩ (Definition 4), stored as
// indexes into the problem's Customers, Vendors and AdTypes slices.
type Instance struct {
	Customer int32
	Vendor   int32
	AdType   int
}

// String implements fmt.Stringer in the paper's triple notation.
func (in Instance) String() string {
	return fmt.Sprintf("⟨u%d, v%d, τ%d⟩", in.Customer, in.Vendor, in.AdType)
}

// Assignment is a solver's output: the selected instance set and its total
// utility (the objective of Definition 5).
type Assignment struct {
	Instances []Instance
	Utility   float64
}

// Problem is a full MUAA instance. MinDist is the distance floor substituted
// into Eq. 4 when a customer sits (numerically) on top of a vendor, keeping
// λ finite; zero selects DefaultMinDist.
type Problem struct {
	Customers []Customer
	Vendors   []Vendor
	AdTypes   []AdType
	// Preference scores s(u_i, v_j, φ); nil selects PearsonPreference with
	// UniformActivity, the paper's Eq. 5 with all tags equally active.
	Preference Preference
	MinDist    float64
}

// DefaultMinDist is the Eq. 4 distance floor used when Problem.MinDist is 0.
// The paper's smallest meaningful scale is the vendor radius (≥ 0.01 in the
// unit square); the floor sits two orders of magnitude below it.
const DefaultMinDist = 1e-4

// NumCustomers returns len(p.Customers); a convenience for the m of the
// paper's notation.
func (p *Problem) NumCustomers() int { return len(p.Customers) }

// NumVendors returns len(p.Vendors); the paper's n.
func (p *Problem) NumVendors() int { return len(p.Vendors) }

// NumAdTypes returns len(p.AdTypes); the paper's q.
func (p *Problem) NumAdTypes() int { return len(p.AdTypes) }

func (p *Problem) minDist() float64 {
	if p.MinDist > 0 {
		return p.MinDist
	}
	return DefaultMinDist
}

func (p *Problem) preference() Preference {
	if p.Preference != nil {
		return p.Preference
	}
	return PearsonPreference{Activity: UniformActivity{}}
}

// Validate checks structural sanity of the problem: IDs match slice
// positions, capacities non-negative, probabilities in [0,1], radii and
// budgets non-negative, ad costs positive, effects non-negative. Solvers
// assume a validated problem.
func (p *Problem) Validate() error {
	if len(p.AdTypes) == 0 {
		return fmt.Errorf("model: no ad types")
	}
	for k, t := range p.AdTypes {
		if !(t.Cost > 0) || math.IsInf(t.Cost, 0) {
			return fmt.Errorf("model: ad type %d (%s) cost %g, want > 0", k, t.Name, t.Cost)
		}
		if t.Effect < 0 || math.IsNaN(t.Effect) || math.IsInf(t.Effect, 0) {
			return fmt.Errorf("model: ad type %d (%s) effect %g, want ≥ 0", k, t.Name, t.Effect)
		}
	}
	for i := range p.Customers {
		u := &p.Customers[i]
		if u.ID != int32(i) {
			return fmt.Errorf("model: customer at index %d has ID %d", i, u.ID)
		}
		if u.Capacity < 0 {
			return fmt.Errorf("model: customer %d capacity %d, want ≥ 0", i, u.Capacity)
		}
		if u.ViewProb < 0 || u.ViewProb > 1 || math.IsNaN(u.ViewProb) {
			return fmt.Errorf("model: customer %d view probability %g outside [0,1]", i, u.ViewProb)
		}
	}
	for j := range p.Vendors {
		v := &p.Vendors[j]
		if v.ID != int32(j) {
			return fmt.Errorf("model: vendor at index %d has ID %d", j, v.ID)
		}
		if v.Radius < 0 || math.IsNaN(v.Radius) {
			return fmt.Errorf("model: vendor %d radius %g, want ≥ 0", j, v.Radius)
		}
		if v.Budget < 0 || math.IsNaN(v.Budget) {
			return fmt.Errorf("model: vendor %d budget %g, want ≥ 0", j, v.Budget)
		}
	}
	return nil
}

// InRange reports the paper's constraint (1): customer u is inside vendor
// v's advertising disk.
func (p *Problem) InRange(ui, vj int32) bool {
	u, v := &p.Customers[ui], &p.Vendors[vj]
	return u.Loc.In(v.Loc, v.Radius)
}

// Distance returns d(u_i, v_j, φ), floored at MinDist for the Eq. 4
// division.
func (p *Problem) Distance(ui, vj int32) float64 {
	d := p.Customers[ui].Loc.Dist(p.Vendors[vj].Loc)
	if floor := p.minDist(); d < floor {
		return floor
	}
	return d
}

// PrefScore returns s(u_i, v_j, φ) at the customer's arrival time, clamped
// to [0, 1]: Pearson similarity can be negative, and a negatively-correlated
// ad simply has zero utility (it would never be assigned).
func (p *Problem) PrefScore(ui, vj int32) float64 {
	s := p.preference().Score(&p.Customers[ui], &p.Vendors[vj], p.Customers[ui].Arrival)
	if s < 0 || math.IsNaN(s) {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// UtilityBase returns p_i · s(u_i, v_j, φ) / d(u_i, v_j, φ) — the ad-type-
// independent factor of Eq. 4. Utility of a concrete instance is
// UtilityBase × β_k; algorithms precompute the base per (customer, vendor)
// pair and sweep ad types cheaply.
func (p *Problem) UtilityBase(ui, vj int32) float64 {
	return p.Customers[ui].ViewProb * p.PrefScore(ui, vj) / p.Distance(ui, vj)
}

// Utility evaluates Eq. 4 for the instance ⟨u_i, v_j, τ_k⟩:
// λ_ijk = p_i · β_k · s(u_i, v_j, φ) / d(u_i, v_j, φ).
func (p *Problem) Utility(ui, vj int32, k int) float64 {
	return p.UtilityBase(ui, vj) * p.AdTypes[k].Effect
}

// Efficiency returns the budget efficiency γ_ijk = λ_ijk / c_k that drives
// the online algorithm's admission threshold.
func (p *Problem) Efficiency(ui, vj int32, k int) float64 {
	return p.Utility(ui, vj, k) / p.AdTypes[k].Cost
}

// TotalUtility sums Eq. 4 over the instances.
func (p *Problem) TotalUtility(ins []Instance) float64 {
	total := 0.0
	for _, in := range ins {
		total += p.Utility(in.Customer, in.Vendor, in.AdType)
	}
	return total
}

// Check verifies the four constraints of Definition 5 on an instance set and
// that no instance is malformed:
//
//  1. every customer is inside the assigning vendor's range,
//  2. no customer exceeds its capacity a_i,
//  3. no vendor exceeds its budget B_j,
//  4. at most one ad per (customer, vendor) pair.
//
// It returns nil for a feasible set and a descriptive error for the first
// violation found. All solvers' outputs must pass Check; the test suite
// enforces this property on every algorithm.
func (p *Problem) Check(ins []Instance) error {
	adsPerCustomer := make(map[int32]int)
	spentPerVendor := make(map[int32]float64)
	pairSeen := make(map[[2]int32]bool)
	for _, in := range ins {
		if in.Customer < 0 || int(in.Customer) >= len(p.Customers) {
			return fmt.Errorf("model: instance %v references unknown customer", in)
		}
		if in.Vendor < 0 || int(in.Vendor) >= len(p.Vendors) {
			return fmt.Errorf("model: instance %v references unknown vendor", in)
		}
		if in.AdType < 0 || in.AdType >= len(p.AdTypes) {
			return fmt.Errorf("model: instance %v references unknown ad type", in)
		}
		if !p.InRange(in.Customer, in.Vendor) {
			return fmt.Errorf("model: instance %v violates the range constraint: d=%g > r=%g",
				in, p.Customers[in.Customer].Loc.Dist(p.Vendors[in.Vendor].Loc), p.Vendors[in.Vendor].Radius)
		}
		if p.Vendors[in.Vendor].Paused {
			return fmt.Errorf("model: instance %v assigns a paused vendor", in)
		}
		pair := [2]int32{in.Customer, in.Vendor}
		if pairSeen[pair] {
			return fmt.Errorf("model: pair (u%d, v%d) assigned twice", in.Customer, in.Vendor)
		}
		pairSeen[pair] = true
		adsPerCustomer[in.Customer]++
		spentPerVendor[in.Vendor] += p.AdTypes[in.AdType].Cost
	}
	for ui, n := range adsPerCustomer {
		if cap := p.Customers[ui].Capacity; n > cap {
			return fmt.Errorf("model: customer %d received %d ads, capacity %d", ui, n, cap)
		}
	}
	for vj, spent := range spentPerVendor {
		if b := p.Vendors[vj].Budget; spent > b+1e-9 {
			return fmt.Errorf("model: vendor %d spent %g, budget %g", vj, spent, b)
		}
	}
	return nil
}

// Theta computes the paper's θ = min_i a_i / n_i^c, where n_i^c is the
// larger of customer i's valid-vendor count and its capacity; a paused vendor
// is not valid (Check rejects an instance on one). It is the
// capacity-pressure factor appearing in both the RECON approximation ratio
// (1−ε)·θ and the O-AFA competitive ratio (ln g + 1)/θ. Customers with no
// valid vendors contribute 1 (they cannot be over-assigned). Returns 1 for a
// problem with no customers.
func (p *Problem) Theta() float64 {
	theta := 1.0
	for i := range p.Customers {
		valid := 0
		for j := range p.Vendors {
			if !p.Vendors[j].Paused && p.InRange(int32(i), int32(j)) {
				valid++
			}
		}
		nc := valid
		if p.Customers[i].Capacity > nc {
			nc = p.Customers[i].Capacity
		}
		if nc == 0 {
			continue
		}
		if r := float64(p.Customers[i].Capacity) / float64(nc); r < theta {
			theta = r
		}
	}
	return theta
}
