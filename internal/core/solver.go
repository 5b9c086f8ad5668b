// Package core implements the MUAA assignment algorithms — the paper's
// contribution and its evaluated baselines:
//
//   - Recon: the offline reconciliation approach (Algorithm 1), with an
//     approximation ratio of (1−ε)·θ;
//   - OnlineAFA: the online adaptive factor-aware approach (Algorithm 2),
//     with a competitive ratio of (ln g + 1)/θ for g > e;
//   - Greedy: the offline budget-efficiency greedy (GREEDY in Section V);
//   - Random, Nearest: the RANDOM and NEAREST baselines of Section V;
//   - Exact: a branch-and-bound optimum for small instances, used to
//     measure empirical approximation/competitive ratios;
//   - OnlineBatch: the micro-batching extension (A6 ablation) — O-AFA
//     admission with bounded look-ahead inside an arrival window;
//   - WindowOracle: GREEDY's kernel with scratch kept between solves, the
//     oracle behind the live quality audit.
//
// Every solver returns an Assignment that satisfies model.Problem.Check —
// range, capacity, budget and pair-uniqueness constraints — for any valid
// problem; the test suite enforces this invariant property-style.
package core

import (
	"fmt"
	"sort"

	"muaa/internal/model"
)

// Solver is a MUAA assignment algorithm. Solve must not mutate the problem.
// Online solvers (OnlineAFA, Nearest, Random) process customers strictly in
// the order of the Customers slice (the arrival stream); offline solvers see
// the whole problem at once.
type Solver interface {
	// Name returns the solver's short evaluation-section name (RECON,
	// ONLINE, GREEDY, RANDOM, NEAREST, EXACT).
	Name() string
	Solve(p *model.Problem) (model.Assignment, error)
}

// finish assembles an Assignment, computing the total utility and asserting
// feasibility. Every solver funnels its instance set through finish, so an
// infeasible output is impossible to return silently.
func finish(p *model.Problem, ins []model.Instance) (model.Assignment, error) {
	if err := p.Check(ins); err != nil {
		return model.Assignment{}, fmt.Errorf("core: solver produced infeasible assignment: %w", err)
	}
	// Deterministic output order: by customer, vendor.
	sort.Slice(ins, func(a, b int) bool {
		if ins[a].Customer != ins[b].Customer {
			return ins[a].Customer < ins[b].Customer
		}
		return ins[a].Vendor < ins[b].Vendor
	})
	return model.Assignment{Instances: ins, Utility: p.TotalUtility(ins)}, nil
}

// candidate is a scored potential instance used by several solvers.
type candidate struct {
	customer int32
	vendor   int32
	adType   int
	utility  float64
	eff      float64 // budget efficiency γ = utility / cost
}

// ledger tracks the mutable feasibility state shared by the constructive
// solvers: per-vendor spend, per-customer ad counts, used pairs.
type ledger struct {
	p        *model.Problem
	spent    []float64
	received []int
	pairUsed map[[2]int32]bool
}

func newLedger(p *model.Problem) *ledger {
	return &ledger{
		p:        p,
		spent:    make([]float64, len(p.Vendors)),
		received: make([]int, len(p.Customers)),
		pairUsed: make(map[[2]int32]bool, len(p.Customers)),
	}
}

// fits reports whether assigning c now would keep all constraints.
func (l *ledger) fits(c candidate) bool {
	if l.received[c.customer] >= l.p.Customers[c.customer].Capacity {
		return false
	}
	if l.pairUsed[[2]int32{c.customer, c.vendor}] {
		return false
	}
	return l.spent[c.vendor]+l.p.AdTypes[c.adType].Cost <= l.p.Vendors[c.vendor].Budget+1e-12
}

// take commits the candidate. Caller must have checked fits.
func (l *ledger) take(c candidate) {
	l.spent[c.vendor] += l.p.AdTypes[c.adType].Cost
	l.received[c.customer]++
	l.pairUsed[[2]int32{c.customer, c.vendor}] = true
}
