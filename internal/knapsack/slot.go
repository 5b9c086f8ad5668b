package knapsack

// SlotSolver states the slot rule of the broker's trim (DESIGN.md §15): the
// MCKP hull-greedy (Keerthi–Tomlin, PAPERS.md) when at most `slots` classes
// may serve one item each and no budget binds. The benchmark ladder times it.
//
//   - serve: a class's maximum-profit item, cheaper then earlier on a tie (its
//     hull completion); non-positive profits are never served.
//   - rank: the class's best item profit/cost, not its first hull increment's
//     dv/dc, which on collinear items can be one ulp lower (the hull keeps the
//     dearer point); the item served is the same.
//   - selection: the top `slots` classes by (rank desc, class asc) serve.
//
// It is not the profit optimum: classes (1, 2) and (10, 10) with one slot
// serve the first. Solve allocates nothing once its slices are warm.
type SlotSolver struct {
	items    []Item
	classEnd []int // per class, exclusive end index into items

	ranked []slotRank // the best slots+1 classes in rank order
	picks  []int      // per class, the served item ordinal or -1
}

type slotRank struct {
	class, item int
	eff         float64
}

// Reset clears the instance for reuse, retaining all storage.
func (s *SlotSolver) Reset() {
	s.items, s.classEnd = s.items[:0], s.classEnd[:0]
}

// Begin starts a new class and returns its index.
func (s *SlotSolver) Begin() int {
	s.classEnd = append(s.classEnd, len(s.items))
	return len(s.classEnd) - 1
}

// Item appends an item (cost > 0) to the most recently begun class.
func (s *SlotSolver) Item(cost, profit float64) {
	s.items = append(s.items, Item{Cost: cost, Profit: profit})
	s.classEnd[len(s.classEnd)-1] = len(s.items)
}

// Solve returns, per class, the ordinal (Add order within the class) of the
// item it serves, or -1; the slice is valid until the next Solve. Like
// Broker.trim it keeps the best slots+1 classes, winners and runner-up, by
// bounded insertion; classes arrive in index order, so a tie stays behind.
func (s *SlotSolver) Solve(slots int) []int {
	slots = min(max(slots, 0), len(s.classEnd)) // caller-supplied: MaxInt and negatives clamp
	s.ranked, s.picks = s.ranked[:0], s.picks[:0]
	start := 0
	for ci, end := range s.classEnd {
		s.picks = append(s.picks, -1)
		r, best := slotRank{class: ci, item: -1}, Item{}
		for i, it := range s.items[start:end] {
			if it.Profit <= 0 {
				continue
			}
			r.eff = max(r.eff, it.Profit/it.Cost)
			if it.Profit > best.Profit || it.Profit == best.Profit && it.Cost < best.Cost {
				r.item, best = i, it
			}
		}
		start = end
		if r.item < 0 || len(s.ranked) > slots && r.eff <= s.ranked[slots].eff {
			continue // nothing to serve, or it ranks behind the runner-up
		}
		s.ranked = append(s.ranked[:min(len(s.ranked), slots)], r) // replaces the runner-up when full
		for j := len(s.ranked) - 1; j > 0 && s.ranked[j].eff > s.ranked[j-1].eff; j-- {
			s.ranked[j], s.ranked[j-1] = s.ranked[j-1], s.ranked[j]
		}
	}
	for _, r := range s.ranked[:min(slots, len(s.ranked))] {
		s.picks[r.class] = r.item
	}
	return s.picks
}
