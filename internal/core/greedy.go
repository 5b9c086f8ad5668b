package core

import (
	"cmp"
	"slices"

	"muaa/internal/model"
)

// Greedy is the offline GREEDY baseline of Section V: it repeatedly selects
// the feasible ad instance with the currently highest budget efficiency
// γ_ijk = λ_ijk / c_k. Because an instance's efficiency never changes — only
// its feasibility does — one pass over the efficiency-sorted candidate list
// is exactly the iterative algorithm.
type Greedy struct{}

// Name implements Solver.
func (Greedy) Name() string { return "GREEDY" }

// greedyOrder is GREEDY's selection order: efficiency descending, then
// (customer, vendor, ad type) ascending. A total order — no two candidates of
// one problem share a triple — so the sort needs no stability, and Greedy and
// WindowOracle, which share it, produce one sequence.
func greedyOrder(a, b candidate) int {
	switch {
	case a.eff > b.eff:
		return -1
	case a.eff < b.eff:
		return 1
	case a.customer != b.customer:
		return cmp.Compare(a.customer, b.customer)
	case a.vendor != b.vendor:
		return cmp.Compare(a.vendor, b.vendor)
	}
	return cmp.Compare(a.adType, b.adType)
}

// Solve implements Solver.
func (Greedy) Solve(p *model.Problem) (model.Assignment, error) {
	ix := NewIndex(p)
	cands := allCandidates(p, ix)
	slices.SortFunc(cands, greedyOrder)
	led := newLedger(p)
	var ins []model.Instance
	for _, c := range cands {
		if !led.fits(c) {
			continue
		}
		led.take(c)
		ins = append(ins, model.Instance{Customer: c.customer, Vendor: c.vendor, AdType: c.adType})
	}
	return finish(p, ins)
}
