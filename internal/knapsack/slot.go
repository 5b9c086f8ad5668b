package knapsack

// SlotSolver is the MCKP hull-greedy under a slot count, the problem the
// broker's slot race solves; the broker states it as a sort (DESIGN.md §15),
// and the benchmark ladder times this solver as a side arm. The problem
// differs from the budgeted MCKP Greedy solves in one way: the binding
// resource is the arrival's slot capacity a_i (at most a_i classes may
// serve), not a shared money budget — each class's affordability is enforced
// per campaign before its items are added. SlotSolver therefore runs the
// same machinery as Greedy — per-class upper-left convex hulls, increments
// walked in decreasing incremental efficiency with the prefix rule — but
// opens a class only while slots remain.
//
// With no shared money budget every increment of an opened class applies
// (within a class efficiency strictly decreases along the hull, so the
// prefix rule is always satisfied when an increment is reached in global
// order). The walk thus opens classes in decreasing best-item efficiency —
// the same currency the O-AFA threshold admits by and the capacity trim
// sorts by — and serves each opened class its hull completion, the
// class's maximum-profit point at minimal cost. The first class denied for
// want of a slot is remembered as the runner-up; its hypothetical pick
// prices the displaced bid in the second-price charge rule.
//
// Only the a_i + 1 classes ranked best by first increment are ever read, so
// only a class that can still reach that shortlist gets a hull: once the
// shortlist is full, a class whose best item efficiency does not beat its
// tail is given an empty hull and left closed (see Solve).
//
// Unlike Greedy, SlotSolver allocates nothing in steady state: all working
// storage is retained flat slices grown by append.

type slotInc struct {
	class int32
	level int32
	dCost float64
	dVal  float64
	eff   float64
}

// SlotSolver solves the slot-capacitated MCKP over classes built
// incrementally with Begin/Item. The zero value is ready to use; Reset
// clears it for reuse without releasing storage.
type SlotSolver struct {
	// Flat item storage, grouped by class in Add order.
	costs    []float64
	profits  []float64
	classEnd []int // per class, exclusive end index into costs/profits

	// Solve scratch, retained across calls.
	seg     []int32 // per-class item ordinals under hull construction
	hull    []int32 // flat hull item ordinals (within class)
	hullEnd []int   // per class, exclusive end index into hull
	incs    []slotInc
	pickLvl []int32 // per class: 0 = closed, l = hull level l-1 chosen
	order   []int32 // opened classes in selection order
	runner  int
	value   float64
	cost    float64
}

// Reset clears the instance for reuse, retaining all storage.
func (s *SlotSolver) Reset() {
	s.costs = s.costs[:0]
	s.profits = s.profits[:0]
	s.classEnd = s.classEnd[:0]
}

// Begin starts a new class and returns its index.
func (s *SlotSolver) Begin() int {
	s.classEnd = append(s.classEnd, len(s.costs))
	return len(s.classEnd) - 1
}

// Item appends an item (cost > 0) to the most recently begun class. Items
// with non-positive profit are accepted and ignored by Solve (the implicit
// (0,0) point dominates them), mirroring classHull.
func (s *SlotSolver) Item(cost, profit float64) {
	s.costs = append(s.costs, cost)
	s.profits = append(s.profits, profit)
	s.classEnd[len(s.classEnd)-1] = len(s.costs)
}

// Classes returns the number of classes begun since the last Reset.
func (s *SlotSolver) Classes() int { return len(s.classEnd) }

// classStart returns the first item index of class ci.
func (s *SlotSolver) classStart(ci int) int {
	if ci == 0 {
		return 0
	}
	return s.classEnd[ci-1]
}

// Solve runs the hull-greedy under a slot capacity: at most `slots` classes
// may serve one item each. Selection is deterministic — increments are
// walked in (efficiency desc, class asc, level asc) order, a total order.
//
// Only the slots+1 classes whose first increment ranks best under that order
// are walked. Every other class's increments are no-ops in the full walk —
// its first increment is reached after the runner-up is set and denied, and
// its later ones never match pickLvl — so leaving them out changes neither a
// result nor the order the value and cost sums accumulate in, and the work
// after the hulls is linear in the classes for the small slot counts the
// broker asks for.
//
// A hull is built only for a class that can reach that shortlist. A class's
// first hull increment is one of its own items taken from (0,0), so its
// efficiency is some item's profit/cost and bestEff bounds it; once the
// shortlist is full, a class whose bound does not beat the tail's efficiency
// cannot enter (an equal efficiency loses the tie to the tail's lower class
// index — classes arrive in ascending order). Nothing reads such a class's
// hull — Pick is closed, the runner is shortlisted — so it gets an empty one.
func (s *SlotSolver) Solve(slots int) {
	n := len(s.classEnd)
	s.hull = s.hull[:0]
	s.hullEnd = s.hullEnd[:0]
	s.incs = s.incs[:0]
	s.order = s.order[:0]
	s.runner = -1
	s.value, s.cost = 0, 0
	s.pickLvl = s.pickLvl[:0]
	keep := min(max(slots, 0), n) + 1 // clamp first: slots is caller-supplied, up to MaxInt
	for ci := 0; ci < n; ci++ {
		s.pickLvl = append(s.pickLvl, 0)
		if len(s.incs) == keep && s.bestEff(ci) <= s.incs[keep-1].eff {
			s.hullEnd = append(s.hullEnd, len(s.hull))
			continue
		}
		s.buildHull(ci)
		if len(s.hullOf(ci)) > 0 {
			s.shortlist(s.inc(ci, 0), keep)
		}
	}
	// The shortlisted classes' later hull levels are appended behind the
	// ranked head and inserted one by one; the list is short and insertion
	// allocates nothing.
	k := len(s.incs)
	for i := 0; i < k; i++ {
		ci := int(s.incs[i].class)
		for l := 1; l < len(s.hullOf(ci)); l++ {
			s.incs = append(s.incs, s.inc(ci, l))
		}
	}
	for i := k; i < len(s.incs); i++ {
		insertLast(s.incs[:i+1])
	}
	for i := range s.incs {
		inc := &s.incs[i]
		if s.pickLvl[inc.class] != inc.level {
			continue // a cheaper increment of this class was skipped
		}
		if inc.level == 0 {
			if slots <= 0 {
				if s.runner < 0 {
					s.runner = int(inc.class)
				}
				continue
			}
			slots--
			s.order = append(s.order, inc.class)
		}
		s.pickLvl[inc.class] = inc.level + 1
		s.value += inc.dVal
		s.cost += inc.dCost
	}
}

// bestEff returns the largest profit/cost over class ci's positive-profit
// items, 0 when it has none: an upper bound on the efficiency of the class's
// first hull increment, computed by the same division inc performs.
func (s *SlotSolver) bestEff(ci int) float64 {
	best := 0.0
	for i := s.classStart(ci); i < s.classEnd[ci]; i++ {
		if e := s.profits[i] / s.costs[i]; e > best {
			best = e
		}
	}
	return best
}

// buildHull computes class ci's upper-left convex hull into the flat hull
// storage. Same geometry as classHull, with item ordinal as the final sort
// tie-break so equal (cost, profit) items resolve deterministically.
func (s *SlotSolver) buildHull(ci int) {
	start, end := s.classStart(ci), s.classEnd[ci]
	s.seg = s.seg[:0]
	for i := start; i < end; i++ {
		if s.profits[i] > 0 {
			s.seg = append(s.seg, int32(i-start))
		}
	}
	seg := s.seg
	// Insertion sort by (cost asc, profit desc, ordinal asc): class item
	// counts are the ad-type catalog size, single digits in practice.
	for i := 1; i < len(seg); i++ {
		for j := i; j > 0; j-- {
			a, b := start+int(seg[j-1]), start+int(seg[j])
			if s.costs[a] < s.costs[b] {
				break
			}
			if s.costs[a] == s.costs[b] {
				if s.profits[a] > s.profits[b] {
					break
				}
				if s.profits[a] == s.profits[b] && seg[j-1] < seg[j] {
					break
				}
			}
			seg[j-1], seg[j] = seg[j], seg[j-1]
		}
	}
	hullStart := len(s.hull)
	for _, ord := range seg {
		idx := start + int(ord)
		c, p := s.costs[idx], s.profits[idx]
		h := s.hull[hullStart:]
		if len(h) > 0 && p <= s.profits[start+int(h[len(h)-1])] {
			continue // dominated: same or higher cost, no more profit
		}
		for len(h) > 0 {
			last := start + int(h[len(h)-1])
			var prevCost, prevProfit float64
			if len(h) >= 2 {
				prev := start + int(h[len(h)-2])
				prevCost, prevProfit = s.costs[prev], s.profits[prev]
			}
			// Keep last only if efficiency decreases across it:
			// slope(prev→last) > slope(last→p).
			lhs := (s.profits[last] - prevProfit) * (c - s.costs[last])
			rhs := (p - s.profits[last]) * (s.costs[last] - prevCost)
			if lhs > rhs {
				break
			}
			h = h[:len(h)-1]
		}
		s.hull = append(s.hull[:hullStart+len(h)], ord)
	}
	s.hullEnd = append(s.hullEnd, len(s.hull))
}

// hullOf returns class ci's hull: item ordinals in increasing cost and
// profit.
func (s *SlotSolver) hullOf(ci int) []int32 {
	hullStart := 0
	if ci > 0 {
		hullStart = s.hullEnd[ci-1]
	}
	return s.hull[hullStart:s.hullEnd[ci]]
}

// inc returns the increment that takes class ci from hull level l-1 (the
// implicit (0,0) point below level 0) to level l.
func (s *SlotSolver) inc(ci, l int) slotInc {
	start, hull := s.classStart(ci), s.hullOf(ci)
	prevCost, prevProfit := 0.0, 0.0
	if l > 0 {
		prev := start + int(hull[l-1])
		prevCost, prevProfit = s.costs[prev], s.profits[prev]
	}
	idx := start + int(hull[l])
	dc := s.costs[idx] - prevCost
	dv := s.profits[idx] - prevProfit
	return slotInc{class: int32(ci), level: int32(l), dCost: dc, dVal: dv, eff: dv / dc}
}

// before is the walk's total order over increments: (eff desc, class asc,
// level asc); (class, level) pairs are unique.
func (a *slotInc) before(b *slotInc) bool {
	if a.eff != b.eff {
		return a.eff > b.eff
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.level < b.level
}

// shortlist offers a class's first increment to s.incs, which holds the best
// `keep` seen so far in rank order — one bounded insertion per class, the
// shape Broker.trim uses.
func (s *SlotSolver) shortlist(inc slotInc, keep int) {
	switch {
	case len(s.incs) < keep:
		s.incs = append(s.incs, inc)
	case inc.before(&s.incs[keep-1]):
		s.incs[keep-1] = inc
	default:
		return
	}
	insertLast(s.incs)
}

// insertLast moves the last element of incs, whose others are in walk order,
// back to its rank.
func insertLast(incs []slotInc) {
	for i := len(incs) - 1; i > 0 && incs[i].before(&incs[i-1]); i-- {
		incs[i], incs[i-1] = incs[i-1], incs[i]
	}
}

// Order returns the opened classes in selection (slot) order: decreasing
// best-item efficiency, ties by class index. Valid until the next Solve.
func (s *SlotSolver) Order() []int32 { return s.order }

// Pick returns the item ordinal (Add order within the class) class ci
// serves, or -1 when the class is closed.
func (s *SlotSolver) Pick(ci int) int {
	lvl := s.pickLvl[ci]
	if lvl == 0 {
		return -1
	}
	return int(s.hullOf(ci)[lvl-1])
}

// Runner returns the first class denied a slot during the walk — the
// displaced runner-up that prices the second-price charge — or -1 when every
// class with a non-empty hull was opened.
func (s *SlotSolver) Runner() int { return s.runner }

// RunnerPick returns the item ordinal the runner-up class would have served
// had it won a slot (its hull completion), or -1 when there is no runner.
func (s *SlotSolver) RunnerPick() int {
	ci := s.runner
	if ci < 0 {
		return -1
	}
	hull := s.hullOf(ci)
	if len(hull) == 0 {
		return -1
	}
	return int(hull[len(hull)-1])
}

// Value returns the total profit of the last Solve's picks.
func (s *SlotSolver) Value() float64 { return s.value }

// Cost returns the total cost of the last Solve's picks.
func (s *SlotSolver) Cost() float64 { return s.cost }
