package knapsack

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestClassHullDropsDominated(t *testing.T) {
	c := Class{Items: []Item{
		{Cost: 1, Profit: 2},   // hull
		{Cost: 2, Profit: 1},   // dominated by item 0
		{Cost: 2, Profit: 3},   // hull
		{Cost: 3, Profit: 3},   // dominated (same profit, higher cost)
		{Cost: 4, Profit: 3.5}, // below the 0→2 extension? eff from 2: 0.25 < slope before — still hull if convex
	}}
	h := classHull(c)
	if len(h) < 2 {
		t.Fatalf("hull too small: %+v", h)
	}
	if h[0].item != 0 || h[1].item != 2 {
		t.Errorf("hull head = %+v, want items 0 then 2", h[:2])
	}
	// Costs strictly increasing, profits strictly increasing, efficiencies
	// strictly decreasing.
	prevCost, prevProfit, prevEff := 0.0, 0.0, math.Inf(1)
	for _, p := range h {
		if p.cost <= prevCost || p.profit <= prevProfit {
			t.Fatalf("hull not monotone: %+v", h)
		}
		eff := (p.profit - prevProfit) / (p.cost - prevCost)
		if eff >= prevEff {
			t.Fatalf("hull efficiencies not strictly decreasing: %+v", h)
		}
		prevCost, prevProfit, prevEff = p.cost, p.profit, eff
	}
}

func TestClassHullIgnoresZeroProfit(t *testing.T) {
	h := classHull(Class{Items: []Item{{Cost: 1, Profit: 0}}})
	if len(h) != 0 {
		t.Errorf("zero-profit item must not reach the hull: %+v", h)
	}
}

// Of several identical (cost, profit) items the earliest reaches the hull,
// also past 12 items, where the sort stops being an insertion sort and keeps
// equal keys in no particular order: Greedy's picks must not depend on it.
func TestClassHullKeepsEarliestDuplicate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var c Class
		for i, n := 0, 13+rng.Intn(20); i < n; i++ {
			c.Items = append(c.Items, Item{Cost: float64(1 + rng.Intn(3)), Profit: float64(1 + rng.Intn(3))})
		}
		for _, p := range classHull(c) {
			if first := slices.Index(c.Items, c.Items[p.item]); first != p.item {
				t.Fatalf("trial %d: hull holds item %d, an equal item %d comes first: %v", trial, p.item, first, c.Items)
			}
		}
	}
}

func TestGreedySimple(t *testing.T) {
	// Two classes, budget for one expensive or two cheap.
	classes := []Class{
		{Items: []Item{{Cost: 1, Profit: 1}, {Cost: 2, Profit: 1.8}}},
		{Items: []Item{{Cost: 1, Profit: 0.9}}},
	}
	sol := Greedy(classes, 2)
	if err := Verify(classes, 2, sol); err != nil {
		t.Fatal(err)
	}
	// Best integral: item0 of class0 (1.0) + class1 (0.9) = 1.9 > 1.8.
	if math.Abs(sol.Value-1.9) > 1e-9 {
		t.Errorf("greedy value = %g, want 1.9", sol.Value)
	}
}

func TestGreedyFallbackToSingleBestItem(t *testing.T) {
	// Greedy fills with small efficient items, then cannot afford the big
	// one; best single item must win.
	classes := []Class{
		{Items: []Item{{Cost: 1, Profit: 1}}},
		{Items: []Item{{Cost: 10, Profit: 8}}},
	}
	sol := Greedy(classes, 10)
	if err := Verify(classes, 10, sol); err != nil {
		t.Fatal(err)
	}
	if sol.Value < 8 {
		t.Errorf("greedy with fallback = %g, want ≥ 8", sol.Value)
	}
}

func TestGreedyZeroBudget(t *testing.T) {
	classes := []Class{{Items: []Item{{Cost: 1, Profit: 5}}}}
	sol := Greedy(classes, 0)
	if sol.Value != 0 || sol.Cost != 0 || sol.Pick[0] != -1 {
		t.Errorf("zero budget must select nothing: %+v", sol)
	}
}

func TestGreedyEmptyInstance(t *testing.T) {
	sol := Greedy(nil, 10)
	if sol.Value != 0 || len(sol.Pick) != 0 {
		t.Errorf("empty instance: %+v", sol)
	}
}

func TestExactWorkedExample(t *testing.T) {
	// Verifiable by hand: budget 5.
	classes := []Class{
		{Items: []Item{{Cost: 2, Profit: 3}, {Cost: 3, Profit: 4}}},
		{Items: []Item{{Cost: 2, Profit: 2.5}}},
		{Items: []Item{{Cost: 1, Profit: 1}}},
	}
	sol := Exact(classes, 5)
	if err := Verify(classes, 5, sol); err != nil {
		t.Fatal(err)
	}
	// Options: (2,3)+(2,2.5)+(1,1) = 6.5 at cost 5 — fits. Optimal 6.5.
	if math.Abs(sol.Value-6.5) > 1e-9 {
		t.Errorf("exact = %g, want 6.5", sol.Value)
	}
}

func TestExactRespectsChoiceConstraint(t *testing.T) {
	classes := []Class{
		{Items: []Item{{Cost: 1, Profit: 1}, {Cost: 1, Profit: 2}}},
	}
	sol := Exact(classes, 10)
	if sol.Value != 2 {
		t.Errorf("must take only the better item of the class, got %g", sol.Value)
	}
}

func TestLPBoundDominatesExactAndGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		classes := randomClasses(rng, 1+rng.Intn(6), 3)
		budget := rng.Float64() * 10
		exact := Exact(classes, budget)
		greedy := Greedy(classes, budget)
		lpv := LPBound(classes, budget)
		if err := Verify(classes, budget, exact); err != nil {
			t.Fatalf("trial %d exact: %v", trial, err)
		}
		if err := Verify(classes, budget, greedy); err != nil {
			t.Fatalf("trial %d greedy: %v", trial, err)
		}
		if greedy.Value > exact.Value+1e-9 {
			t.Fatalf("trial %d: greedy %g beats exact %g", trial, greedy.Value, exact.Value)
		}
		if exact.Value > lpv+1e-9 {
			t.Fatalf("trial %d: exact %g beats LP bound %g", trial, exact.Value, lpv)
		}
		// Greedy-with-fallback is ≥ 1/2 of optimum.
		if greedy.Value < exact.Value/2-1e-9 {
			t.Fatalf("trial %d: greedy %g below half of optimum %g", trial, greedy.Value, exact.Value)
		}
		// Greedy is within the largest single-increment profit of LP.
		maxProfit := 0.0
		for _, c := range classes {
			for _, it := range c.Items {
				if it.Profit > maxProfit {
					maxProfit = it.Profit
				}
			}
		}
		if greedy.Value < lpv-maxProfit-1e-9 {
			t.Fatalf("trial %d: greedy %g not within max item %g of LP %g", trial, greedy.Value, maxProfit, lpv)
		}
	}
}

func randomClasses(rng *rand.Rand, nClasses, maxItems int) []Class {
	classes := make([]Class, nClasses)
	for i := range classes {
		k := 1 + rng.Intn(maxItems)
		items := make([]Item, k)
		for j := range items {
			items[j] = Item{Cost: 0.2 + rng.Float64()*3, Profit: rng.Float64() * 2}
		}
		classes[i] = Class{Items: items}
	}
	return classes
}

func TestGreedyNearLPWhenItemsTiny(t *testing.T) {
	// Paper regime: many classes, item costs ≪ budget. Greedy must be very
	// close to the LP optimum.
	rng := rand.New(rand.NewSource(6))
	classes := randomClasses(rng, 300, 4)
	budget := 50.0
	greedy := Greedy(classes, budget)
	lpv := LPBound(classes, budget)
	if greedy.Value < 0.97*lpv {
		t.Errorf("greedy %g below 97%% of LP %g in the tiny-item regime", greedy.Value, lpv)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]struct {
		classes []Class
		budget  float64
	}{
		"neg budget": {nil, -1},
		"nan budget": {nil, math.NaN()},
		"zero cost":  {[]Class{{Items: []Item{{Cost: 0, Profit: 1}}}}, 1},
		"neg cost":   {[]Class{{Items: []Item{{Cost: -1, Profit: 1}}}}, 1},
		"neg profit": {[]Class{{Items: []Item{{Cost: 1, Profit: -1}}}}, 1},
		"inf profit": {[]Class{{Items: []Item{{Cost: 1, Profit: math.Inf(1)}}}}, 1},
	}
	for name, c := range cases {
		if err := Validate(c.classes, c.budget); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	if err := Validate([]Class{{Items: []Item{{Cost: 1, Profit: 0}}}}, 0); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	classes := []Class{{Items: []Item{{Cost: 2, Profit: 3}}}}
	good := Solution{Pick: []int{0}, Value: 3, Cost: 2}
	if err := Verify(classes, 2, good); err != nil {
		t.Errorf("good solution rejected: %v", err)
	}
	bad := []Solution{
		{Pick: []int{0}, Value: 3, Cost: 2}, // over budget (checked below with budget 1)
		{Pick: []int{1}, Value: 3, Cost: 2}, // bad index
		{Pick: []int{0}, Value: 4, Cost: 2}, // wrong value
		{Pick: []int{0}, Value: 3, Cost: 1}, // wrong cost
		{Pick: nil, Value: 0, Cost: 0},      // wrong length
	}
	budgets := []float64{1, 2, 2, 2, 2}
	for i, s := range bad {
		if err := Verify(classes, budgets[i], s); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestKnapsack01Classic(t *testing.T) {
	weights := []int{2, 3, 4, 5}
	values := []float64{3, 4, 5, 6}
	picked, v := Knapsack01(weights, values, 5)
	if v != 7 {
		t.Fatalf("value = %g, want 7", v)
	}
	if !picked[0] || !picked[1] || picked[2] || picked[3] {
		t.Errorf("picked = %v, want items 0 and 1", picked)
	}
}

func TestKnapsack01ZeroCapacity(t *testing.T) {
	_, v := Knapsack01([]int{1}, []float64{5}, 0)
	if v != 0 {
		t.Errorf("value = %g, want 0", v)
	}
	_, v = Knapsack01([]int{1}, []float64{5}, -3)
	if v != 0 {
		t.Errorf("negative capacity treated as 0, got %g", v)
	}
}

func TestKnapsack01Validation(t *testing.T) {
	for name, f := range map[string]func(){
		"len mismatch": func() { Knapsack01([]int{1}, []float64{1, 2}, 3) },
		"zero weight":  func() { Knapsack01([]int{0}, []float64{1}, 3) },
		"neg value":    func() { Knapsack01([]int{1}, []float64{-1}, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMCKPExactMatchesKnapsack01OnSingletons(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		weights := make([]int, n)
		values := make([]float64, n)
		items := make([]Item, n)
		for i := 0; i < n; i++ {
			weights[i] = 1 + rng.Intn(6)
			values[i] = float64(rng.Intn(10))
			items[i] = Item{Cost: float64(weights[i]), Profit: values[i]}
		}
		capacity := rng.Intn(15)
		_, dpVal := Knapsack01(weights, values, capacity)
		sol := Exact(SingletonClasses(items), float64(capacity))
		if math.Abs(dpVal-sol.Value) > 1e-9 {
			t.Fatalf("trial %d: DP %g vs MCKP exact %g", trial, dpVal, sol.Value)
		}
	}
}

func TestSingletonClasses(t *testing.T) {
	items := []Item{{Cost: 1, Profit: 2}, {Cost: 3, Profit: 4}}
	classes := SingletonClasses(items)
	if len(classes) != 2 || len(classes[0].Items) != 1 || classes[1].Items[0] != items[1] {
		t.Errorf("SingletonClasses = %+v", classes)
	}
}
