package knapsack

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceSlotPick restates the slot rule item by item: classes ranked by
// best item efficiency (ties: class index), the top `slots` serve their
// maximum-profit item (ties: cheaper, then earlier); every other class -1.
func referenceSlotPick(classes []Class, slots int) []int {
	picks, effs, ranked := make([]int, len(classes)), make([]float64, len(classes)), []int{}
	for ci, c := range classes {
		bestItem, bestProfit, bestCost := -1, 0.0, 0.0
		for ii, it := range c.Items {
			if it.Profit <= 0 {
				continue
			}
			if e := it.Profit / it.Cost; e > effs[ci] {
				effs[ci] = e
			}
			if it.Profit > bestProfit || (it.Profit == bestProfit && bestItem >= 0 && it.Cost < bestCost) {
				bestItem, bestProfit, bestCost = ii, it.Profit, it.Cost
			}
		}
		if picks[ci] = bestItem; bestItem >= 0 {
			ranked = append(ranked, ci)
		}
	}
	// Class indices ascend, so a stable sort keeps the lower class first.
	slices.SortStableFunc(ranked, func(a, b int) int { return cmp.Compare(effs[b], effs[a]) })
	for _, ci := range ranked[min(max(slots, 0), len(ranked)):] {
		picks[ci] = -1
	}
	return picks
}

// class builds one class from (cost, profit) pairs.
func class(cp ...float64) (c Class) {
	for i := 0; i < len(cp); i += 2 {
		c.Items = append(c.Items, Item{Cost: cp[i], Profit: cp[i+1]})
	}
	return c
}

// load fills s with classes, replacing what it held.
func load(s *SlotSolver, classes []Class) {
	s.Reset()
	for _, c := range classes {
		s.Begin()
		for _, it := range c.Items {
			s.Item(it.Cost, it.Profit)
		}
	}
}

// checkSlots solves the loaded instance and holds it to the reference and,
// when every class has a slot, to Greedy under an unbounded budget: classHull
// and its increment walk, the hull-greedy DESIGN.md §15 says the rule is.
// Greedy sees negative profits, which are never served, as 0.
func checkSlots(t *testing.T, s *SlotSolver, classes []Class, slots int) {
	t.Helper()
	got := s.Solve(slots)
	if want := referenceSlotPick(classes, slots); !slices.Equal(got, want) {
		t.Fatalf("slots %d: picks %v, reference %v", slots, got, want)
	}
	if slots < len(classes) {
		return
	}
	if want := Greedy(nonnegative(classes), 1e18).Pick; !slices.Equal(got, want) {
		t.Fatalf("slots %d: picks %v, Greedy %v", slots, got, want)
	}
}

// nonnegative copies classes with every negative profit raised to 0.
func nonnegative(classes []Class) []Class {
	out := make([]Class, len(classes))
	for ci, c := range classes {
		for _, it := range c.Items {
			out[ci].Items = append(out[ci].Items, Item{Cost: it.Cost, Profit: max(it.Profit, 0)})
		}
	}
	return out
}

// fullSortSlotPick is the hull greedy under a slot limit: every class's hull
// increments in one full sort, walked in order, a class's first increment
// taking a slot while one is left and each later one upgrading a class
// already served, so a served class ends at its hull completion. As the
// SlotSolver comment says, a first increment ranks by the class's best item
// profit/cost, which can sit an ulp above its dv/dc when the hull keeps the
// dearer of collinear points. It shares no code with the solver's bounded
// insertion or with referenceSlotPick.
func fullSortSlotPick(classes []Class, slots int) []int {
	incs, hulls := buildIncrements(classes)
	for i := range incs {
		if incs[i].level > 0 {
			continue
		}
		for _, it := range classes[incs[i].class].Items {
			if it.Profit > 0 {
				incs[i].eff = max(incs[i].eff, it.Profit/it.Cost)
			}
		}
	}
	// The best ratio is at least every increment's dv/dc, so a class's first
	// increment still comes before its others.
	slices.SortFunc(incs, func(a, b increment) int {
		return cmp.Or(cmp.Compare(b.eff, a.eff), a.class-b.class, a.level-b.level)
	})
	level := make([]int, len(classes))
	for _, inc := range incs {
		if level[inc.class] != inc.level || (inc.level == 0 && slots <= 0) {
			continue
		}
		if inc.level == 0 {
			slots--
		}
		level[inc.class] = inc.level + 1
	}
	picks := make([]int, len(classes))
	for ci, l := range level {
		picks[ci] = -1
		if l > 0 {
			picks[ci] = hulls[ci][l-1].item
		}
	}
	return picks
}

// randSlotClasses draws 0–11 classes of 1–6 items, 0–400 on every tenth
// trial. Two trials in three draw from a lattice, which repeats (cost,
// profit) pairs, ties ranks and puts collinear items an ulp apart; the rest
// are continuous. Profits run negative.
func randSlotClasses(rng *rand.Rand, trial int) []Class {
	n := rng.Intn(12)
	if trial%10 == 0 {
		n = rng.Intn(401)
	}
	lattice := trial%3 != 0
	classes := make([]Class, n)
	for ci := range classes {
		for i, items := 0, 1+rng.Intn(6); i < items; i++ {
			cost, profit := 0.1+rng.Float64()*9.9, rng.Float64()*10-1
			if lattice {
				cost, profit = float64(1+rng.Intn(4))*0.3, float64(rng.Intn(7)-1)*0.7
			}
			classes[ci].Items = append(classes[ci].Items, Item{Cost: cost, Profit: profit})
		}
	}
	return classes
}

// slotCounts is -1…n+1 for small n, a spread for large, and MaxInt and
// MinInt, which a client can send.
func slotCounts(rng *rand.Rand, n int) []int {
	slots := []int{0, 1, 2, 4, rng.Intn(n + 1), n, n + 1, math.MaxInt, math.MinInt}
	if n <= 12 {
		slots = slots[len(slots)-2:]
		for k := -1; k <= n+1; k++ {
			slots = append(slots, k)
		}
	}
	return slots
}

// The rule against its restatement on randSlotClasses instances at every
// slotCounts count.
func TestSlotSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var s SlotSolver
	for trial := 0; trial < 400; trial++ {
		classes := randSlotClasses(rng, trial)
		load(&s, classes)
		for _, k := range slotCounts(rng, len(classes)) {
			checkSlots(t, &s, classes, k)
		}
	}
}

// The rule against the hull greedy's full sort under a slot limit, at every
// slot count and not only where every class has one.
func TestSlotSolverMatchesFullSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var s SlotSolver
	for trial := 0; trial < 300; trial++ {
		classes := randSlotClasses(rng, trial)
		load(&s, classes)
		for _, k := range slotCounts(rng, len(classes)) {
			if got, want := s.Solve(k), fullSortSlotPick(classes, k); !slices.Equal(got, want) {
				t.Fatalf("trial %d, slots %d: picks %v, full-sort oracle %v", trial, k, got, want)
			}
		}
	}
}

// With a slot for every class the slot limit is slack, and the picks reach
// the total profit of Greedy given unlimited money: every class serves its
// best item.
func TestSlotSolverUnboundedMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var s SlotSolver
	for trial := 0; trial < 200; trial++ {
		classes := randSlotClasses(rng, trial)
		load(&s, classes)
		value := 0.0
		for ci, ii := range s.Solve(len(classes)) {
			if ii >= 0 {
				value += classes[ci].Items[ii].Profit
			}
		}
		if want := Greedy(nonnegative(classes), 1e18).Value; math.Abs(value-want) > 1e-9*max(1, want) {
			t.Fatalf("trial %d: slot value %g, Greedy value %g", trial, value, want)
		}
	}
}

func TestSlotSolverZeroSlots(t *testing.T) {
	var s SlotSolver
	load(&s, []Class{class(1, 5), class(2, 20)})
	if got := s.Solve(0); !slices.Equal(got, []int{-1, -1}) {
		t.Fatalf("zero slots served: %v", got)
	}
	// Class 1 (eff 10) outranks class 0 (eff 5).
	if got := s.Solve(1); !slices.Equal(got, []int{-1, 0}) {
		t.Fatalf("one slot: %v, want class 1 item 0", got)
	}
}

// Instances on the edges of the bounded insertion: rank ties at its tail and
// head, a best ratio that is not the cheapest item, classes with nothing to
// serve before and after it fills, and slot counts past the class count.
func TestSlotSolverHullSkipCorners(t *testing.T) {
	c := class
	for _, tc := range []struct {
		name    string
		classes []Class
		slots   []int
	}{
		// 0.3/0.1 and 0.6/0.2 differ in both operands and are bit-equal
		// quotients: the lower index holds the tail, the later class stays out.
		{"tie straddles the tail", []Class{c(1, 5), c(0.1, 0.3), c(0.2, 0.6), c(0.1, 0.3)}, []int{0, 1, 2, 3}},
		{"tie with the head", []Class{c(2, 6), c(1, 3), c(4, 12)}, []int{0, 1, 2}},
		{"between head and tail", []Class{c(1, 5), c(1, 2), c(1, 3), c(1, 4)}, []int{0, 1, 2}},
		{"lower efficiency, room left", []Class{c(1, 5), c(1, 3), c(1, 2), c(1, 1)}, []int{2, 3, 4}},
		{"best ratio is not the cheapest item", []Class{c(1, 2.5), c(1, 2), c(1, 1, 2, 6), c(1, 0.5, 3, 8.5, 2, 1)}, []int{0, 1, 2}},
		{"no positive profit after the shortlist fills", []Class{c(1, 5), c(1, 4), c(1, 0, 2, -3), c(1, -1), c(1, 4.5)}, []int{0, 1, 2}},
		{"no positive profit before it fills", []Class{c(1, 0, 2, -3), c(1, -1), c(1, 5), c(1, 4), c(1, 6)}, []int{0, 1, 2, 3}},
		{"slots ≥ classes", []Class{c(1, 5), c(1, 1, 2, 6), c(1, 0), c(3, 1), c(1, 2, 2, 3, 4, 4)}, []int{5, 6, math.MaxInt}},
		{"runner with a tall hull", []Class{c(1, 9), c(1, 4, 2, 6, 4, 7), c(1, 3), c(1, 3.5)}, []int{0, 1}},
		{"nothing to rank", []Class{c(1, 0), c(2, -1)}, []int{0, 1, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s SlotSolver
			load(&s, tc.classes)
			for _, slots := range tc.slots {
				checkSlots(t, &s, tc.classes, slots)
			}
		})
	}
}

// The solver must not allocate once its retained buffers are warm.
func TestSlotSolverSteadyStateAllocs(t *testing.T) {
	var classes []Class
	for p := 2.0; p < 10; p++ {
		classes = append(classes, class(1, p, 2, 2*p, 3, 3*p, 4, 4*p))
	}
	var s SlotSolver
	fill := func() { load(&s, classes); s.Solve(3) }
	fill() // warm the buffers
	if avg := testing.AllocsPerRun(100, fill); avg != 0 {
		t.Fatalf("steady-state Solve allocates %.1f/op, want 0", avg)
	}
}

// FuzzSlotSolver decodes an instance from raw bytes — one byte per item,
// cost from its low nibble and profit from its high one, so ties and
// duplicates are the common case — and holds Solve to the slot rule's
// item-by-item restatement. The slot count folds into 0..classes+1, except
// 255, which stands for the MaxInt an untrusted caller can send.
func FuzzSlotSolver(f *testing.F) {
	f.Add([]byte{0x11, 0x22, 0x00, 0x33, 0x12}, uint8(1))
	f.Add([]byte{0xf1, 0xf1, 0x00, 0xf1, 0x00, 0x21, 0x42, 0x63}, uint8(2))
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{0x11, 0x00, 0x22}, uint8(255))
	// TestSlotSolverHullSkipCorners's edges, in this encoding.
	f.Add([]byte{0x52, 0x00, 0x31, 0x00, 0x31, 0x00, 0x31}, uint8(1))
	f.Add([]byte{0x52, 0x00, 0x52, 0x00, 0x30, 0xf1}, uint8(1))
	f.Add([]byte{0x52, 0x00, 0x52, 0x00, 0x21, 0x13, 0x00, 0x10, 0x00, 0x61}, uint8(1))
	f.Add([]byte{0x52, 0x00, 0x31, 0x00, 0x43, 0x21}, uint8(3))
	f.Add([]byte{0x31, 0x00, 0x52, 0x00, 0x43}, uint8(0))
	f.Add([]byte{0xf0, 0x00, 0x50, 0x82, 0x95, 0x00, 0x41}, uint8(1))
	// Thirteen items, mostly equal: classHull sorts them past insertion sort.
	f.Add([]byte("0000000000100"), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, slots uint8) {
		var classes []Class
		for _, field := range bytes.Split(data, []byte{0}) { // 0 separates classes
			var c Class
			for _, b := range field {
				c.Items = append(c.Items, Item{Cost: float64(1+b&0x0f) * 0.3, Profit: float64(int(b>>4)-2) * 0.7})
			}
			if len(c.Items) > 0 {
				classes = append(classes, c)
			}
		}
		var s SlotSolver
		load(&s, classes)
		k := math.MaxInt
		if slots != 255 {
			k = int(slots) % (len(classes) + 2)
		}
		checkSlots(t, &s, classes, k)
	})
}

// BenchmarkSlotSolverDense is the dense-market solve: 260 admitted classes of
// four items (the ad-type catalog), slots 1–4 in rotation.
func BenchmarkSlotSolverDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var s SlotSolver
	for ci := 0; ci < 260; ci++ {
		s.Begin()
		for i := 0; i < 4; i++ {
			s.Item(float64(i+1), float64(i+1)*rng.Float64())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(1 + i%4)
	}
}
