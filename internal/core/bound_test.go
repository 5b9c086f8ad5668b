package core

import (
	"math"
	"math/rand"
	"testing"

	"muaa/internal/geo"
	"muaa/internal/model"
)

// boundProblem draws a small instance inside the premises of the paper's
// competitive bound: every ad costs at most 1/20 of every budget, and a
// campaign covering the whole square draws more than 20 customers, so its
// budget can still bind. A second, small campaign overlaps a few of them,
// which pulls θ below 1.
func boundProblem(rng *rand.Rand) *model.Problem {
	p := &model.Problem{AdTypes: []model.AdType{
		{Name: "TL", Cost: 1, Effect: 0.1},
		{Name: "ML", Cost: 1.5, Effect: 0.25},
		{Name: "PL", Cost: 2, Effect: 0.4},
	}}
	// Interests near one profile, so most pairs score above zero.
	vector := func() []float64 {
		return []float64{1 + 0.6*rng.Float64(), 0.5 + 0.6*rng.Float64(), 0.6 * rng.Float64()}
	}
	for i, n := 0, 23+rng.Intn(3); i < n; i++ {
		p.Customers = append(p.Customers, model.Customer{
			ID: int32(i), Loc: geo.Point{X: rng.Float64(), Y: rng.Float64()},
			Capacity: 1 + rng.Intn(2), ViewProb: 0.1 + 0.8*rng.Float64(), Interests: vector(),
		})
	}
	const maxCost = 2
	p.Vendors = []model.Vendor{
		{ID: 0, Loc: geo.Point{X: 0.5, Y: 0.5}, Radius: 0.75, Budget: 20 * maxCost * (1 + 0.1*rng.Float64()), Tags: vector()},
		{ID: 1, Loc: geo.Point{X: rng.Float64(), Y: rng.Float64()}, Radius: 0.15, Budget: 20 * maxCost * (1 + 0.3*rng.Float64()), Tags: vector()},
	}
	return p
}

// TestOnlineBoundOverSeeds is the paper's guarantee as a fence over seeds:
// with γ_min and γ_max given to O-AFA exactly and g from the tuning rule
// (so g > e), ONLINE/OPT ≥ θ/(ln g + 1) on every instance, OPT from Exact.
// The observed minimum of ONLINE/OPT and of its slack over the bound are
// logged, so a regression in the walk shows as a number moving.
func TestOnlineBoundOverSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	minRatio, minSlack, checked, binding := math.Inf(1), math.Inf(1), 0, 0
	for seed := 0; seed < 60; seed++ {
		p := boundProblem(rng)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		cands := allCandidates(p, NewIndex(p))
		if len(cands) == 0 {
			continue
		}
		gMin, gMax := math.Inf(1), 0.0
		for _, c := range cands {
			gMin, gMax = min(gMin, c.eff), max(gMax, c.eff)
		}
		g := TuneG(gMin, gMax)
		opt, err := Exact{MaxPairs: 32}.Solve(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		online, err := OnlineAFA{GammaMin: gMin, G: g}.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		ratio := online.Utility / opt.Utility
		bound := p.Theta() / (math.Log(g) + 1)
		if ratio < bound {
			t.Errorf("seed %d: ONLINE/OPT = %g below θ/(ln g + 1) = %g (θ=%g, g=%g)", seed, ratio, bound, p.Theta(), g)
		}
		spent := 0.0
		for _, in := range opt.Instances {
			if in.Vendor == 0 {
				spent += p.AdTypes[in.AdType].Cost
			}
		}
		if spent > p.Vendors[0].Budget-p.AdTypes[2].Cost {
			binding++
		}
		minRatio, minSlack = min(minRatio, ratio), min(minSlack, ratio/bound)
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d seeds had a positive optimum, want ≥ 50", checked)
	}
	if binding == 0 {
		t.Fatal("no optimum used up the big campaign's budget: the budget premise is never tested")
	}
	t.Logf("%d seeds (%d with a binding budget): min ONLINE/OPT %.4f, min ratio over the bound %.3f", checked, binding, minRatio, minSlack)
}
