// Package knapsack implements the knapsack machinery the MUAA paper builds
// on: the 0-1 knapsack problem (the NP-hardness reduction target of Theorem
// II.1) and the multiple-choice knapsack problem (MCKP) that each
// single-vendor subproblem of the reconciliation approach reduces to
// (Section III-A; Ibaraki et al. [14], Sinha & Zoltners [19]).
//
// An MCKP instance is a set of classes; from each class at most one item may
// be picked; picked costs must fit a budget; picked profit is maximized. For
// MUAA, a class is one valid customer of the vendor and the class's items
// are the ad types (cost c_k, profit λ_ijk).
//
// Four MCKP solvers are provided; the first three read each class's
// upper-left convex hull from classHull, the package's one hull builder:
//
//   - Greedy: the classical Dantzig/LP-derived greedy over incremental hull
//     items. Its value is within the most profitable single hull increment
//     of the LP optimum, which is the (1-ε) behaviour the paper's analysis
//     assumes for small item-to-budget ratios.
//   - LPBound: the fractional (LP-relaxation) optimum, computed exactly from
//     the same hull structure without a simplex run.
//   - Exact: branch-and-bound with the LP bound, exact for the small
//     instances used to validate approximation ratios.
//   - FPTAS: the profit-scaling dynamic program, within (1−ε) of Exact.
//
// Knapsack01 solves the 0-1 problem (SingletonClasses states it as MCKP),
// and SlotSolver states the slot rule — the hull-greedy under a slot count
// instead of a budget — item by item, without building a hull.
package knapsack

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Item is a candidate with a cost and a profit. Costs must be positive and
// profits non-negative; violations are reported by Validate.
type Item struct {
	Cost   float64
	Profit float64
}

// Class is a choose-at-most-one group of items.
type Class struct {
	Items []Item
}

// Solution is an integral MCKP assignment.
type Solution struct {
	// Pick holds, per class, the index of the chosen item, or -1 when the
	// class contributes nothing.
	Pick []int
	// Value is the total profit of the picks.
	Value float64
	// Cost is the total cost of the picks.
	Cost float64
}

// Validate checks an instance: budget non-negative and finite, all costs
// positive and finite, all profits non-negative and finite.
func Validate(classes []Class, budget float64) error {
	if math.IsNaN(budget) || math.IsInf(budget, 0) || budget < 0 {
		return fmt.Errorf("knapsack: bad budget %g", budget)
	}
	for ci, c := range classes {
		for ii, it := range c.Items {
			if !(it.Cost > 0) || math.IsInf(it.Cost, 0) {
				return fmt.Errorf("knapsack: class %d item %d has cost %g, want > 0", ci, ii, it.Cost)
			}
			if it.Profit < 0 || math.IsNaN(it.Profit) || math.IsInf(it.Profit, 0) {
				return fmt.Errorf("knapsack: class %d item %d has profit %g, want ≥ 0", ci, ii, it.Profit)
			}
		}
	}
	return nil
}

// hullPoint is one vertex of a class's efficiency frontier.
type hullPoint struct {
	item   int // index into the class's Items
	cost   float64
	profit float64
}

// classHull returns the upper-left convex hull of a class's (cost, profit)
// points — the LP-undominated items in increasing cost order with strictly
// decreasing incremental efficiency. The implicit (0, 0) "pick nothing"
// point anchors the hull; it is not included in the result.
func classHull(c Class) []hullPoint {
	pts := make([]hullPoint, 0, len(c.Items))
	for i, it := range c.Items {
		if it.Profit <= 0 {
			continue // never worth picking; (0,0) dominates
		}
		pts = append(pts, hullPoint{item: i, cost: it.Cost, profit: it.Profit})
	}
	// A total order, so of several identical points the earliest item
	// reaches the hull whatever the sort does with equal keys.
	slices.SortFunc(pts, func(a, b hullPoint) int {
		return cmp.Or(cmp.Compare(a.cost, b.cost), cmp.Compare(b.profit, a.profit), a.item-b.item)
	})
	// Graham-style scan anchored at (0,0).
	hull := make([]hullPoint, 0, len(pts))
	for _, p := range pts {
		// Drop plainly dominated points (same or higher cost, lower or equal
		// profit than the running maximum).
		if len(hull) > 0 && p.profit <= hull[len(hull)-1].profit {
			continue
		}
		for len(hull) > 0 {
			last := hull[len(hull)-1]
			var prevCost, prevProfit float64
			if len(hull) >= 2 {
				prev := hull[len(hull)-2]
				prevCost, prevProfit = prev.cost, prev.profit
			}
			// Keep last only if efficiency decreases across it:
			// slope(prev→last) > slope(last→p).
			lhs := (last.profit - prevProfit) * (p.cost - last.cost)
			rhs := (p.profit - last.profit) * (last.cost - prevCost)
			if lhs > rhs {
				break
			}
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull
}

// increment is one greedy step: upgrading a class from hull level l-1 to l.
type increment struct {
	class  int
	level  int // index into the class's hull
	dCost  float64
	dValue float64
	eff    float64
}

// buildIncrements assembles all hull increments of all classes sorted by
// decreasing efficiency (ties: class, then level, for determinism). It also
// returns the per-class hulls.
func buildIncrements(classes []Class) ([]increment, [][]hullPoint) {
	hulls := make([][]hullPoint, len(classes))
	var incs []increment
	for ci, c := range classes {
		h := classHull(c)
		hulls[ci] = h
		prevCost, prevProfit := 0.0, 0.0
		for l, p := range h {
			dc := p.cost - prevCost
			dv := p.profit - prevProfit
			incs = append(incs, increment{
				class: ci, level: l, dCost: dc, dValue: dv, eff: dv / dc,
			})
			prevCost, prevProfit = p.cost, p.profit
		}
	}
	slices.SortFunc(incs, func(a, b increment) int {
		return cmp.Or(cmp.Compare(b.eff, a.eff), a.class-b.class, a.level-b.level)
	})
	return incs, hulls
}

// Greedy solves MCKP with the Dantzig greedy: walk hull increments by
// decreasing efficiency, applying each increment whose class is at the
// preceding level and whose cost still fits. The result is integral and
// feasible. As a safety net for adversarial instances it returns the better
// of the greedy fill and the single best item that fits, which upgrades the
// guarantee to the classical 1/2 of optimum; on MUAA workloads, where each
// item is tiny relative to the budget, the value is within one item of the
// LP optimum — the paper's (1-ε).
func Greedy(classes []Class, budget float64) Solution {
	if err := Validate(classes, budget); err != nil {
		panic(err)
	}
	incs, hulls := buildIncrements(classes)
	pickLevel := make([]int, len(classes)) // 0 = nothing, l = hull level l-1 chosen
	remaining := budget
	value := 0.0
	for _, inc := range incs {
		if pickLevel[inc.class] != inc.level {
			continue // a cheaper increment of this class was skipped
		}
		if inc.dCost > remaining {
			continue // skip, later (smaller) increments of other classes may fit
		}
		remaining -= inc.dCost
		value += inc.dValue
		pickLevel[inc.class] = inc.level + 1
	}
	sol := Solution{Pick: make([]int, len(classes)), Value: value, Cost: budget - remaining}
	for ci := range classes {
		if lvl := pickLevel[ci]; lvl > 0 {
			sol.Pick[ci] = hulls[ci][lvl-1].item
		} else {
			sol.Pick[ci] = -1
		}
	}
	cleanup(classes, budget, &sol)
	// Fallback: best single item that fits on its own.
	bestC, bestI, bestV := -1, -1, 0.0
	for ci, c := range classes {
		for ii, it := range c.Items {
			if it.Cost <= budget && it.Profit > bestV {
				bestC, bestI, bestV = ci, ii, it.Profit
			}
		}
	}
	if bestV > sol.Value {
		pick := make([]int, len(classes))
		for i := range pick {
			pick[i] = -1
		}
		pick[bestC] = bestI
		alt := Solution{Pick: pick, Value: bestV, Cost: classes[bestC].Items[bestI].Cost}
		cleanup(classes, budget, &alt)
		return alt
	}
	return sol
}

// cleanup spends leftover budget that the hull walk cannot reach: LP-
// dominated items (e.g. a cheap ad type whose incremental efficiency is
// below the pricier one's) never appear on a hull, so classes skipped for
// budget can still afford them, and chosen items may admit an upgrade within
// the remaining budget. Repeatedly apply the single best profit-improving
// move (addition to an empty class, or in-class upgrade) until none fits.
// Only ever increases Value, so every guarantee on the hull solution holds.
func cleanup(classes []Class, budget float64, sol *Solution) {
	remaining := budget - sol.Cost
	for {
		bestClass, bestItem := -1, -1
		bestGain := 0.0
		for ci, c := range classes {
			cur := sol.Pick[ci]
			curCost, curProfit := 0.0, 0.0
			if cur >= 0 {
				curCost, curProfit = c.Items[cur].Cost, c.Items[cur].Profit
			}
			for ii, it := range c.Items {
				if ii == cur {
					continue
				}
				dCost := it.Cost - curCost
				dGain := it.Profit - curProfit
				if dGain <= bestGain || dCost > remaining+1e-12 {
					continue
				}
				bestClass, bestItem, bestGain = ci, ii, dGain
			}
		}
		if bestClass < 0 {
			return
		}
		c := classes[bestClass]
		if old := sol.Pick[bestClass]; old >= 0 {
			sol.Cost -= c.Items[old].Cost
			sol.Value -= c.Items[old].Profit
		}
		sol.Pick[bestClass] = bestItem
		sol.Cost += c.Items[bestItem].Cost
		sol.Value += c.Items[bestItem].Profit
		remaining = budget - sol.Cost
	}
}

// LPBound returns the optimum of the MCKP LP relaxation, computed exactly by
// filling hull increments in efficiency order and taking the last one
// fractionally. It upper-bounds every integral solution.
func LPBound(classes []Class, budget float64) float64 {
	if err := Validate(classes, budget); err != nil {
		panic(err)
	}
	incs, _ := buildIncrements(classes)
	// In the LP relaxation the prefix property is free (fractions of
	// consecutive hull levels compose), so increments may be consumed purely
	// in efficiency order.
	remaining := budget
	value := 0.0
	for _, inc := range incs {
		if remaining <= 0 {
			break
		}
		if inc.dCost <= remaining {
			remaining -= inc.dCost
			value += inc.dValue
		} else {
			value += inc.dValue * remaining / inc.dCost
			remaining = 0
		}
	}
	return value
}

// Exact solves MCKP optimally via depth-first branch-and-bound with the LP
// bound. Intended for small instances (validation, the paper's worked
// example); cost grows exponentially in the worst case.
func Exact(classes []Class, budget float64) Solution {
	if err := Validate(classes, budget); err != nil {
		panic(err)
	}
	n := len(classes)
	best := Solution{Pick: make([]int, n), Value: -1}
	for i := range best.Pick {
		best.Pick[i] = -1
	}
	cur := make([]int, n)
	for i := range cur {
		cur[i] = -1
	}
	// Order classes by their best efficiency so bounds tighten early.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	bestEff := make([]float64, n)
	for i, c := range classes {
		for _, it := range c.Items {
			if e := it.Profit / it.Cost; e > bestEff[i] {
				bestEff[i] = e
			}
		}
	}
	sort.Slice(order, func(a, b int) bool { return bestEff[order[a]] > bestEff[order[b]] })

	var dfs func(pos int, value, remaining float64)
	dfs = func(pos int, value, remaining float64) {
		if value > best.Value {
			best.Value = value
			best.Cost = budget - remaining
			copy(best.Pick, cur)
		}
		if pos == n {
			return
		}
		// Bound: LP optimum of the remaining suffix.
		suffix := make([]Class, 0, n-pos)
		for _, ci := range order[pos:] {
			suffix = append(suffix, classes[ci])
		}
		if value+LPBound(suffix, remaining) <= best.Value+1e-12 {
			return
		}
		ci := order[pos]
		// Try each item (most profitable first), then "skip class".
		idx := make([]int, len(classes[ci].Items))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return classes[ci].Items[idx[a]].Profit > classes[ci].Items[idx[b]].Profit
		})
		for _, ii := range idx {
			it := classes[ci].Items[ii]
			if it.Cost > remaining {
				continue
			}
			cur[ci] = ii
			dfs(pos+1, value+it.Profit, remaining-it.Cost)
			cur[ci] = -1
		}
		dfs(pos+1, value, remaining)
	}
	dfs(0, 0, budget)
	if best.Value < 0 {
		best.Value = 0
	}
	return best
}

// Verify checks that sol is a feasible solution of (classes, budget) and
// that its Value/Cost fields match the picks. It returns a descriptive error
// on the first violation. Every solver's output satisfies Verify; tests and
// downstream consumers lean on it.
func Verify(classes []Class, budget float64, sol Solution) error {
	if len(sol.Pick) != len(classes) {
		return fmt.Errorf("knapsack: %d picks for %d classes", len(sol.Pick), len(classes))
	}
	cost, value := 0.0, 0.0
	for ci, ii := range sol.Pick {
		if ii == -1 {
			continue
		}
		if ii < 0 || ii >= len(classes[ci].Items) {
			return fmt.Errorf("knapsack: class %d picks out-of-range item %d", ci, ii)
		}
		cost += classes[ci].Items[ii].Cost
		value += classes[ci].Items[ii].Profit
	}
	if cost > budget+1e-9 {
		return fmt.Errorf("knapsack: cost %g exceeds budget %g", cost, budget)
	}
	if math.Abs(cost-sol.Cost) > 1e-9 {
		return fmt.Errorf("knapsack: recorded cost %g, actual %g", sol.Cost, cost)
	}
	if math.Abs(value-sol.Value) > 1e-9 {
		return fmt.Errorf("knapsack: recorded value %g, actual %g", sol.Value, value)
	}
	return nil
}
