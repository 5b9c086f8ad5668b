package knapsack

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randSlotInstance builds a random instance as both []Class (for the
// reference solvers) and a populated SlotSolver.
func randSlotInstance(rng *rand.Rand, s *SlotSolver) []Class {
	n := 1 + rng.Intn(6)
	classes := make([]Class, n)
	s.Reset()
	for ci := range classes {
		items := 1 + rng.Intn(5)
		s.Begin()
		for i := 0; i < items; i++ {
			cost := 0.1 + rng.Float64()*9.9
			profit := rng.Float64() * 10
			if rng.Intn(8) == 0 {
				profit = 0 // exercise the non-positive-profit filter
			}
			classes[ci].Items = append(classes[ci].Items, Item{Cost: cost, Profit: profit})
			s.Item(cost, profit)
		}
	}
	return classes
}

// referenceSlotPick mirrors the solver's contract directly: classes ranked
// by best item efficiency (ties: class index), the top `slots` serve their
// maximum-profit item (ties: cheaper, then earlier).
func referenceSlotPick(classes []Class, slots int) (order []int, picks map[int]int, runner int) {
	type rank struct {
		class int
		eff   float64
	}
	var ranks []rank
	picks = map[int]int{}
	for ci, c := range classes {
		bestEff := 0.0
		bestItem, bestProfit, bestCost := -1, 0.0, 0.0
		for ii, it := range c.Items {
			if it.Profit <= 0 {
				continue
			}
			if e := it.Profit / it.Cost; e > bestEff {
				bestEff = e
			}
			if it.Profit > bestProfit || (it.Profit == bestProfit && bestItem >= 0 && it.Cost < bestCost) {
				bestItem, bestProfit, bestCost = ii, it.Profit, it.Cost
			}
		}
		if bestItem < 0 {
			continue
		}
		ranks = append(ranks, rank{class: ci, eff: bestEff})
		picks[ci] = bestItem
	}
	// Stable by construction: class indices ascend, so equal-eff ties keep
	// the lower class first under this insertion sort.
	for i := 1; i < len(ranks); i++ {
		for j := i; j > 0 && ranks[j].eff > ranks[j-1].eff; j-- {
			ranks[j], ranks[j-1] = ranks[j-1], ranks[j]
		}
	}
	runner = -1
	for i, r := range ranks {
		if i < slots {
			order = append(order, r.class)
		} else {
			if runner < 0 {
				runner = r.class
			}
			delete(picks, r.class)
		}
	}
	return order, picks, runner
}

func TestSlotSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var s SlotSolver
	for trial := 0; trial < 500; trial++ {
		classes := randSlotInstance(rng, &s)
		slots := rng.Intn(len(classes) + 2)
		s.Solve(slots)
		wantOrder, wantPicks, wantRunner := referenceSlotPick(classes, slots)
		if got := s.Order(); len(got) != len(wantOrder) {
			t.Fatalf("trial %d: opened %d classes, want %d", trial, len(got), len(wantOrder))
		}
		for i, ci := range s.Order() {
			if int(ci) != wantOrder[i] {
				t.Fatalf("trial %d: order[%d] = %d, want %d", trial, i, ci, wantOrder[i])
			}
		}
		value := 0.0
		for ci := range classes {
			got := s.Pick(ci)
			want, ok := wantPicks[ci]
			if !ok {
				want = -1
			}
			if got != want {
				t.Fatalf("trial %d: class %d pick %d, want %d", trial, ci, got, want)
			}
			if got >= 0 {
				value += classes[ci].Items[got].Profit
			}
		}
		if diff := value - s.Value(); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: Value() = %g, picks sum %g", trial, s.Value(), value)
		}
		if s.Runner() != wantRunner {
			t.Fatalf("trial %d: runner %d, want %d", trial, s.Runner(), wantRunner)
		}
		if wantRunner >= 0 {
			rp := s.RunnerPick()
			want := -1
			for ii, it := range classes[wantRunner].Items {
				if it.Profit <= 0 {
					continue
				}
				if want < 0 || it.Profit > classes[wantRunner].Items[want].Profit ||
					(it.Profit == classes[wantRunner].Items[want].Profit && it.Cost < classes[wantRunner].Items[want].Cost) {
					want = ii
				}
			}
			if rp != want {
				t.Fatalf("trial %d: runner pick %d, want %d", trial, rp, want)
			}
		}
	}
}

// With slots ≥ classes the slot constraint is slack and the solver must
// reach the same total profit as the budgeted Greedy given unlimited money:
// every class serves its best item.
func TestSlotSolverUnboundedMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var s SlotSolver
	for trial := 0; trial < 200; trial++ {
		classes := randSlotInstance(rng, &s)
		s.Solve(len(classes))
		sol := Greedy(classes, 1e18)
		if diff := s.Value() - sol.Value; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: slot value %g, greedy value %g", trial, s.Value(), sol.Value)
		}
	}
}

func TestSlotSolverZeroSlots(t *testing.T) {
	var s SlotSolver
	s.Begin()
	s.Item(1, 5)
	s.Begin()
	s.Item(2, 20)
	s.Solve(0)
	if len(s.Order()) != 0 || s.Value() != 0 {
		t.Fatalf("zero slots served: order %v value %g", s.Order(), s.Value())
	}
	// Runner is the best class by item efficiency: class 1 (eff 10) beats
	// class 0 (eff 5).
	if s.Runner() != 1 || s.RunnerPick() != 0 {
		t.Fatalf("runner = %d pick %d, want class 1 item 0", s.Runner(), s.RunnerPick())
	}
}

// The solver must not allocate once its retained buffers are warm: it lives
// inside the broker's zero-alloc scan arena.
func TestSlotSolverSteadyStateAllocs(t *testing.T) {
	var s SlotSolver
	fill := func() {
		s.Reset()
		for ci := 0; ci < 8; ci++ {
			s.Begin()
			for i := 0; i < 4; i++ {
				s.Item(float64(i+1), float64((ci+2)*(i+1)))
			}
		}
		s.Solve(3)
	}
	fill() // warm the buffers
	if avg := testing.AllocsPerRun(100, fill); avg != 0 {
		t.Fatalf("steady-state Solve allocates %.1f/op, want 0", avg)
	}
}

// oracleSlot is the solver as it stood before Solve learned to shortlist:
// every class's hull increments, one full sort, the same walk. Kept verbatim
// (over the solver's item storage, with its own hull and increment slices) as
// the differential oracle for the shortlisted walk.
type oracleSlot struct {
	hull       [][]int32 // per class, item ordinals
	order      []int32
	pick       []int // per class, item ordinal or -1
	runner     int
	runnerPick int
	value      float64
	cost       float64
}

func oracleSolve(s *SlotSolver, slots int) oracleSlot {
	n := len(s.classEnd)
	o := oracleSlot{hull: make([][]int32, n), pick: make([]int, n), runner: -1, runnerPick: -1}
	var incs []slotInc
	pickLvl := make([]int32, n)
	for ci := 0; ci < n; ci++ {
		start, end := s.classStart(ci), s.classEnd[ci]
		var seg []int32
		for i := start; i < end; i++ {
			if s.profits[i] > 0 {
				seg = append(seg, int32(i-start))
			}
		}
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
		var h []int32
		for _, ord := range seg {
			idx := start + int(ord)
			c, p := s.costs[idx], s.profits[idx]
			if len(h) > 0 && p <= s.profits[start+int(h[len(h)-1])] {
				continue
			}
			for len(h) > 0 {
				last := start + int(h[len(h)-1])
				var prevCost, prevProfit float64
				if len(h) >= 2 {
					prev := start + int(h[len(h)-2])
					prevCost, prevProfit = s.costs[prev], s.profits[prev]
				}
				lhs := (s.profits[last] - prevProfit) * (c - s.costs[last])
				rhs := (p - s.profits[last]) * (s.costs[last] - prevCost)
				if lhs > rhs {
					break
				}
				h = h[:len(h)-1]
			}
			h = append(h, ord)
		}
		o.hull[ci] = h
		prevCost, prevProfit := 0.0, 0.0
		for l, ord := range h {
			idx := start + int(ord)
			dc := s.costs[idx] - prevCost
			dv := s.profits[idx] - prevProfit
			incs = append(incs, slotInc{class: int32(ci), level: int32(l), dCost: dc, dVal: dv, eff: dv / dc})
			prevCost, prevProfit = s.costs[idx], s.profits[idx]
		}
	}
	for i := 1; i < len(incs); i++ {
		for j := i; j > 0; j-- {
			a, b := &incs[j-1], &incs[j]
			if a.eff > b.eff {
				break
			}
			if a.eff == b.eff {
				if a.class < b.class {
					break
				}
				if a.class == b.class && a.level < b.level {
					break
				}
			}
			incs[j-1], incs[j] = incs[j], incs[j-1]
		}
	}
	for i := range incs {
		inc := &incs[i]
		if pickLvl[inc.class] != inc.level {
			continue
		}
		if inc.level == 0 {
			if slots <= 0 {
				if o.runner < 0 {
					o.runner = int(inc.class)
				}
				continue
			}
			slots--
			o.order = append(o.order, inc.class)
		}
		pickLvl[inc.class] = inc.level + 1
		o.value += inc.dVal
		o.cost += inc.dCost
	}
	for ci := range o.pick {
		o.pick[ci] = -1
		if lvl := pickLvl[ci]; lvl > 0 {
			o.pick[ci] = int(o.hull[ci][lvl-1])
		}
	}
	if o.runner >= 0 {
		h := o.hull[o.runner]
		o.runnerPick = int(h[len(h)-1])
	}
	return o
}

// checkAgainstOracle solves the populated instance both ways and demands the
// same answers, the float sums bit for bit; it returns the oracle's.
func checkAgainstOracle(t *testing.T, s *SlotSolver, slots int) oracleSlot {
	t.Helper()
	want := oracleSolve(s, slots)
	s.Solve(slots)
	if got := s.Order(); !slices.Equal(got, want.order) {
		t.Fatalf("slots %d: order %v, oracle %v", slots, got, want.order)
	}
	for ci := range want.pick {
		if got := s.Pick(ci); got != want.pick[ci] {
			t.Fatalf("slots %d: class %d pick %d, oracle %d", slots, ci, got, want.pick[ci])
		}
	}
	if s.Runner() != want.runner || s.RunnerPick() != want.runnerPick {
		t.Fatalf("slots %d: runner %d pick %d, oracle %d pick %d",
			slots, s.Runner(), s.RunnerPick(), want.runner, want.runnerPick)
	}
	if math.Float64bits(s.Value()) != math.Float64bits(want.value) ||
		math.Float64bits(s.Cost()) != math.Float64bits(want.cost) {
		t.Fatalf("slots %d: value %x cost %x, oracle %x %x", slots,
			math.Float64bits(s.Value()), math.Float64bits(s.Cost()),
			math.Float64bits(want.value), math.Float64bits(want.cost))
	}
	return want
}

// The shortlisted walk against the full-sort oracle on instances built to hit
// its corners: items drawn from a small lattice so (cost, profit) pairs repeat
// within a class, efficiencies tie across classes and hull efficiencies sit an
// ulp apart; non-positive profits; 0–400 classes of 1–6 items; every slot
// count from -1 to classes+1 on the small instances and a spread on the large,
// and the extremes of int, which the broker passes through from the client.
func TestSlotSolverMatchesFullSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var s SlotSolver
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(12)
		if trial%10 == 0 {
			n = rng.Intn(401)
		}
		lattice := trial%3 != 0
		s.Reset()
		for ci := 0; ci < n; ci++ {
			s.Begin()
			for i, items := 0, 1+rng.Intn(6); i < items; i++ {
				cost, profit := 0.1+rng.Float64()*9.9, rng.Float64()*10-1
				if lattice {
					cost, profit = float64(1+rng.Intn(4))*0.3, float64(rng.Intn(7)-1)*0.7
				}
				s.Item(cost, profit)
			}
		}
		if n <= 12 {
			for slots := -1; slots <= n+1; slots++ {
				checkAgainstOracle(t, &s, slots)
			}
			checkAgainstOracle(t, &s, math.MaxInt)
			continue
		}
		for _, slots := range []int{0, 1, 2, 4, rng.Intn(n), n, n + 1, math.MaxInt, math.MinInt} {
			checkAgainstOracle(t, &s, slots)
		}
	}
}

// Solve builds a hull only for a class whose best profit/cost can still beat
// the shortlist's tail; these instances sit on that rule's edges. Each class
// is a list of (cost, profit) pairs and every slot count in `slots` is held to
// the full-sort oracle.
//
// Seeded mutations, each tried by hand against this table and
// TestSlotSolverMatchesFullSortOracle, and each failing both: skipping before
// the shortlist is full (any len(incs) > 0 instead of == keep), testing the
// bound against incs[0] instead of the tail, and reading the bound off a
// class's first positive-profit item only. (`<` for `<=` is not a fault: it
// builds the hulls of tied classes, which then lose on class index.)
func TestSlotSolverHullSkipCorners(t *testing.T) {
	type class [][2]float64
	one := func(cost, profit float64) class { return class{{cost, profit}} }
	for _, tc := range []struct {
		name    string
		classes []class
		slots   []int
	}{
		// 0.3/0.1 and 0.6/0.2 differ in both operands and are bit-equal
		// quotients: the lower index holds the tail, the later class stays out.
		{"tie straddles the tail", []class{one(1, 5), one(0.1, 0.3), one(0.2, 0.6), one(0.1, 0.3)}, []int{0, 1, 2, 3}},
		{"tie with the head", []class{one(2, 6), one(1, 3), one(4, 12)}, []int{0, 1, 2}},
		{"between head and tail", []class{one(1, 5), one(1, 2), one(1, 3), one(1, 4)}, []int{0, 1, 2}},
		{"lower efficiency, room left", []class{one(1, 5), one(1, 3), one(1, 2), one(1, 1)}, []int{2, 3, 4}},
		// (2, 6) is the best ratio and the whole hull; (1, 1) is cheaper and
		// dominated in slope. A bound read off the cheapest item would skip it.
		{"best ratio is not the cheapest item", []class{one(1, 2.5), one(1, 2), {{1, 1}, {2, 6}}, {{1, 0.5}, {3, 8.5}, {2, 1}}}, []int{0, 1, 2}},
		{"no positive profit after the shortlist fills", []class{one(1, 5), one(1, 4), {{1, 0}, {2, -3}}, one(1, -1), one(1, 4.5)}, []int{0, 1, 2}},
		{"no positive profit before it fills", []class{{{1, 0}, {2, -3}}, one(1, -1), one(1, 5), one(1, 4), one(1, 6)}, []int{0, 1, 2, 3}},
		{"slots ≥ classes", []class{one(1, 5), {{1, 1}, {2, 6}}, one(1, 0), one(3, 1), {{1, 2}, {2, 3}, {4, 4}}}, []int{5, 6, math.MaxInt}},
		// The runner-up is read through RunnerPick: its hull must be whole
		// (three levels here), not just its first increment.
		{"runner with a tall hull", []class{one(1, 9), {{1, 4}, {2, 6}, {4, 7}}, one(1, 3), one(1, 3.5)}, []int{0, 1}},
		{"nothing to rank", []class{one(1, 0), one(2, -1)}, []int{0, 1, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s SlotSolver
			for _, c := range tc.classes {
				s.Begin()
				for _, it := range c {
					s.Item(it[0], it[1])
				}
			}
			for _, slots := range tc.slots {
				want := checkAgainstOracle(t, &s, slots)
				if slots < len(tc.classes) {
					continue
				}
				// The shortlist never fills: no class may go without its hull.
				for ci, h := range want.hull {
					if got := s.hullOf(ci); !slices.Equal(got, h) {
						t.Fatalf("slots %d: class %d hull %v, oracle %v", slots, ci, got, h)
					}
				}
			}
		})
	}
}

// FuzzSlotSolver decodes an instance from raw bytes — one byte per item,
// cost from its low nibble and profit from its high one, so ties and
// duplicates are the common case — and holds Solve to the full-sort oracle.
// The slot count folds into 0..classes+1, except 255, which stands for the
// MaxInt an untrusted caller can send.
func FuzzSlotSolver(f *testing.F) {
	f.Add([]byte{0x11, 0x22, 0x00, 0x33, 0x12}, uint8(1))
	f.Add([]byte{0xf1, 0xf1, 0x00, 0xf1, 0x00, 0x21, 0x42, 0x63}, uint8(2))
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{0x11, 0x00, 0x22}, uint8(255))
	// The hull-skip corners (TestSlotSolverHullSkipCorners), in this encoding:
	// a tie straddling the shortlist tail; a late class whose best ratio is its
	// dearer item; profitless classes once the shortlist is full; slots ≥
	// classes; no slots; a runner-up with a three-level hull.
	f.Add([]byte{0x52, 0x00, 0x31, 0x00, 0x31, 0x00, 0x31}, uint8(1))
	f.Add([]byte{0x52, 0x00, 0x52, 0x00, 0x30, 0xf1}, uint8(1))
	f.Add([]byte{0x52, 0x00, 0x52, 0x00, 0x21, 0x13, 0x00, 0x10, 0x00, 0x61}, uint8(1))
	f.Add([]byte{0x52, 0x00, 0x31, 0x00, 0x43, 0x21}, uint8(3))
	f.Add([]byte{0x31, 0x00, 0x52, 0x00, 0x43}, uint8(0))
	f.Add([]byte{0xf0, 0x00, 0x50, 0x82, 0x95, 0x00, 0x41}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, slots uint8) {
		var s SlotSolver
		open := false
		for _, b := range data {
			if b == 0 {
				open = false // class separator
				continue
			}
			if !open {
				s.Begin()
				open = true
			}
			s.Item(float64(1+b&0x0f)*0.3, float64(int(b>>4)-2)*0.7)
		}
		if slots == 255 {
			checkAgainstOracle(t, &s, math.MaxInt)
			return
		}
		checkAgainstOracle(t, &s, int(slots)%(s.Classes()+2))
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
