package core

import "muaa/internal/model"

// Greedy is the offline GREEDY baseline of Section V: it repeatedly selects
// the feasible ad instance with the currently highest budget efficiency
// γ_ijk = λ_ijk / c_k, ties broken by (customer, vendor, ad type) ascending.
// Because an instance's efficiency never changes — only its feasibility
// does — one pass in that order is exactly the iterative algorithm; the
// kernel (WindowOracle.Solve) makes the pass as a lazy merge that never
// sorts the candidates it will not reach.
type Greedy struct{}

// Name implements Solver.
func (Greedy) Name() string { return "GREEDY" }

// Solve implements Solver: the WindowOracle kernel with fresh scratch.
func (Greedy) Solve(p *model.Problem) (model.Assignment, error) {
	return new(WindowOracle).Solve(p)
}
