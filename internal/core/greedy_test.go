package core

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"muaa/internal/geo"
	"muaa/internal/model"
)

// sortAllGreedy is GREEDY as Section V states it, kept as the kernel's
// reference: every valid (customer, vendor, ad type) triple with positive
// utility, sorted by greedyOrder, then one pass taking whatever still fits.
func sortAllGreedy(p *model.Problem) (model.Assignment, error) {
	cands := allCandidates(p, NewIndex(p))
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

// greedyOrder is GREEDY's selection order: efficiency descending, then
// (customer, vendor, ad type) ascending. A total order — no two candidates
// of one problem share a triple — so the sort needs no stability.
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

// allCandidates enumerates every valid (customer, vendor, ad type) triple
// with positive utility, using the index for range filtering.
func allCandidates(p *model.Problem, ix *Index) []candidate {
	var out []candidate
	var buf []int32
	for ui := range p.Customers {
		buf = ix.ValidVendors(buf[:0], int32(ui))
		for _, vj := range buf {
			base := p.UtilityBase(int32(ui), vj)
			if base <= 0 {
				continue
			}
			for k := range p.AdTypes {
				u := base * p.AdTypes[k].Effect
				if u <= 0 {
					continue
				}
				out = append(out, candidate{
					customer: int32(ui),
					vendor:   vj,
					adType:   k,
					utility:  u,
					eff:      u / p.AdTypes[k].Cost,
				})
			}
		}
	}
	return out
}

// tieProblem draws a small problem built to hit every branch of the lazy
// kernel: coordinates on a 1/16 lattice (duplicate locations, and vendors
// exactly equidistant from a customer, so pairs tie in efficiency and the
// grid's order differs from id order), a few shared interest/tag vectors,
// ad-type catalogues with equal effect/cost ratios and a zero-effect type,
// budgets near the ad costs (the top type busts while a cheaper one fits),
// capacities from 0 to 3 and paused vendors.
func tieProblem(rng *rand.Rand) *model.Problem {
	lattice := func() geo.Point {
		return geo.Point{X: float64(rng.Intn(17)) / 16, Y: float64(rng.Intn(17)) / 16}
	}
	vectors := [][]float64{{1, 0.2, 0.3}, {0.1, 0.9, 0.4}, {0.5, 0.1, 0.8}}
	catalogues := [][]model.AdType{
		{{Name: "TL", Cost: 1, Effect: 0.1}, {Name: "PL", Cost: 2, Effect: 0.2}, {Name: "BL", Cost: 4, Effect: 0.4}},
		{{Name: "BL", Cost: 4, Effect: 0.4}, {Name: "Z", Cost: 1, Effect: 0}, {Name: "TL", Cost: 1, Effect: 0.1}},
		{{Name: "TL", Cost: 1, Effect: 0.1}, {Name: "PL", Cost: 2, Effect: 0.4}, {Name: "Z", Cost: 3, Effect: 0}},
		{{Name: "PL", Cost: 2, Effect: 0.4}, {Name: "TL", Cost: 1, Effect: 0.2}, {Name: "ML", Cost: 3, Effect: 0.3}},
	}
	p := &model.Problem{AdTypes: catalogues[rng.Intn(len(catalogues))]}
	for i, n := 0, rng.Intn(41); i < n; i++ {
		p.Customers = append(p.Customers, model.Customer{
			ID: int32(i), Loc: lattice(), Capacity: rng.Intn(4),
			ViewProb:  float64(1+rng.Intn(4)) / 4,
			Interests: vectors[rng.Intn(len(vectors))],
		})
	}
	for j, n := 0, rng.Intn(13); j < n; j++ {
		p.Vendors = append(p.Vendors, model.Vendor{
			ID: int32(j), Loc: lattice(), Radius: float64(2+rng.Intn(8)) / 16,
			Budget: float64(rng.Intn(13)) / 2, Tags: vectors[rng.Intn(len(vectors))],
			Paused: rng.Intn(6) == 0,
		})
	}
	return p
}

// TestGreedyMatchesSortAll: the lazy kernel tries the sorted list's
// candidates in the sorted list's order, so over 300 tie-heavy problems —
// solved by one reused WindowOracle, its problems growing and shrinking, and
// by Greedy's fresh scratch — it takes exactly the reference's instances and
// reports its utility bit for bit.
func TestGreedyMatchesSortAll(t *testing.T) {
	o := &WindowOracle{}
	rng := rand.New(rand.NewSource(40))
	typeTies, pairTies := 0, 0
	for seed := 0; seed < 300; seed++ {
		p := tieProblem(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := sortAllGreedy(p)
		if err != nil {
			t.Fatal(err)
		}
		cands := allCandidates(p, NewIndex(p))
		slices.SortFunc(cands, greedyOrder)
		for i := 1; i < len(cands); i++ {
			a, b := cands[i-1], cands[i]
			switch {
			case a.eff != b.eff:
			case a.customer == b.customer && a.vendor == b.vendor:
				typeTies++
			default:
				pairTies++
			}
		}
		for name, s := range map[string]Solver{"reused oracle": o, "Greedy": Greedy{}} {
			got, err := s.Solve(p)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if !reflect.DeepEqual(got.Instances, want.Instances) ||
				math.Float64bits(got.Utility) != math.Float64bits(want.Utility) {
				t.Fatalf("seed %d %s: %d instances, utility %v; reference %d, %v",
					seed, name, len(got.Instances), got.Utility, len(want.Instances), want.Utility)
			}
		}
	}
	if typeTies == 0 || pairTies == 0 {
		t.Fatalf("ties in efficiency: %d across ad types, %d across pairs; the fence needs both", typeTies, pairTies)
	}
}

// TestWindowOracleThetaMatchesProblem: the θ counted in the oracle's gather
// equals model.Problem.Theta's all-pairs count bit for bit, on the
// tie-heavy problems (paused vendors, capacity 0) and the synthetic ones.
func TestWindowOracleThetaMatchesProblem(t *testing.T) {
	o := &WindowOracle{}
	rng := rand.New(rand.NewSource(41))
	check := func(name string, p *model.Problem) {
		t.Helper()
		if _, err := o.Solve(p); err != nil {
			t.Fatal(err)
		}
		if got, want := o.Theta(), p.Theta(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: oracle θ %v, Problem.Theta %v", name, got, want)
		}
	}
	for seed := 0; seed < 200; seed++ {
		check("tie problem", tieProblem(rng))
	}
	for seed := int64(0); seed < 4; seed++ {
		check("medium problem", mediumProblem(t, seed))
	}
}
