package broker

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"muaa/internal/checkin"
	"muaa/internal/core"
	"muaa/internal/model"
	"muaa/internal/stats"
	"muaa/internal/workload"
)

// TestKernelMatchesCoreSession is the differential oracle of ROADMAP item 1,
// step 1: PAPER.md's Alg. 2 exists twice in this repo — core.Session, written
// from the paper, and the serving kernel — and on a fixed-cost fleet with a
// fixed g they must decide alike, arrival for arrival and bit for bit.
//
// One precondition makes the two comparable. The session takes γ_min as a
// constant; the broker estimates both bounds online. So the true bounds over
// every in-range (customer, vendor, ad type) triple are computed by brute
// force and stored into the broker before the first arrival: the running
// bounds then never move (asserted at the end) and gammaState.threshold is
// core.AdaptiveThreshold.Value expression for expression.
//
// A zero-budget vendor that some in-range customer also scores ≤ 0 makes the
// order of the terms filters observable: both sides skip it, but the funnel
// must file it under the first filter that applies (DESIGN.md §4).
//
// The session scores through the one-shot model.PearsonPreference.Score, the
// kernel through model.UnitPearson prepared at registration and per arrival,
// so this is also the prepared scorer's end-to-end oracle. Seeded mutations
// that fail it (PR 23): dropping the centring in UnitPearson.Prepare
// (d = v: arrival 0 differs on the checkin city), and squaring one side's
// sum of squares in Score (Sqrt(p.cov·p.cov): arrival 57). Swapping the two
// sums is not a mutation — the product commutes.
func TestKernelMatchesCoreSession(t *testing.T) {
	synthetic, err := workload.Synthetic(workload.Config{
		Customers: 500, Vendors: 120,
		Budget:   stats.Range{Lo: 4, Hi: 12},
		Radius:   stats.Range{Lo: 0.1, Hi: 0.25},
		Capacity: stats.Range{Lo: 0, Hi: 3},
		ViewProb: stats.Range{Lo: 0.2, Hi: 0.9},
		Seed:     21,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := checkin.Generate(checkin.Config{Users: 80, Venues: 400, Checkins: 8000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	city, err := checkin.ToProblem(ds.FilterMinCheckins(8), checkin.ProblemConfig{
		Budget:       stats.Range{Lo: 4, Hi: 12},
		Radius:       stats.Range{Lo: 0.04, Hi: 0.08},
		Capacity:     stats.Range{Lo: 1, Hi: 4},
		ViewProb:     stats.Range{Lo: 0.2, Hi: 0.6},
		MaxCustomers: 800,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *model.Problem
	}{{"synthetic", synthetic}, {"checkin", city}} {
		for j := range tc.p.Vendors {
			if j%9 == 4 {
				tc.p.Vendors[j].Budget = 0
			}
		}
		for _, stripes := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/stripes=%d", tc.name, stripes), func(t *testing.T) {
				replayAgainstSession(t, tc.p, stripes)
			})
		}
	}
}

func replayAgainstSession(t *testing.T, p *model.Problem, stripes int) {
	// Brute-force γ bounds and the reference filter classification.
	gmin, gmax := math.Inf(1), 0.0
	gathered := make([]uint64, len(p.Vendors))
	lowScore := make([]uint64, len(p.Vendors))
	for i := range p.Customers {
		if p.Customers[i].Capacity == 0 {
			continue // never gathered by either side
		}
		for j := range p.Vendors {
			ui, vj := int32(i), int32(j)
			if !p.InRange(ui, vj) {
				continue
			}
			gathered[j]++
			if p.PrefScore(ui, vj) == 0 {
				lowScore[j]++
			}
			base := p.UtilityBase(ui, vj)
			for _, ad := range p.AdTypes {
				if eff := base * ad.Effect / ad.Cost; eff > 0 {
					gmin, gmax = min(gmin, eff), max(gmax, eff)
				}
			}
		}
	}
	// The paper's tuning rule (Section IV-B): φ(1) = γ_max, so a draining
	// vendor is refused all but its most efficient customers.
	g := math.E * gmax / gmin

	b, err := New(Config{AdTypes: p.AdTypes, G: g, Shards: stripes, Funnel: FunnelConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	for j := range p.Vendors {
		v := &p.Vendors[j]
		if _, err := b.RegisterCampaign(v.Loc, v.Radius, v.Budget, v.Tags); err != nil {
			t.Fatal(err)
		}
	}
	b.gammaMin.Store(gmin)
	b.gammaMax.Store(gmax)
	s, err := core.NewSession(p, core.OnlineAFA{GammaMin: gmin, G: g})
	if err != nil {
		t.Fatal(err)
	}

	type pick struct {
		vendor int32
		adType int
	}
	offers := 0
	for i := range p.Customers {
		u := &p.Customers[i]
		var want, got []pick
		for _, in := range s.Arrive(int32(i)) {
			want = append(want, pick{in.Vendor, in.AdType})
		}
		out, err := b.Arrive(Arrival{
			Loc: u.Loc, Capacity: u.Capacity, ViewProb: u.ViewProb,
			Interests: u.Interests, Hour: u.Arrival,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range out {
			got = append(got, pick{o.Campaign, o.AdType})
		}
		if !slices.Equal(got, want) {
			t.Fatalf("arrival %d (capacity %d): broker pushed %v, session %v", i, u.Capacity, got, want)
		}
		offers += len(got)
		for j, c := range *b.dir.Load() {
			if bs, ss := c.spent.Load(), s.Spent(int32(j)); math.Float64bits(bs) != math.Float64bits(ss) {
				t.Fatalf("after arrival %d: vendor %d spent %v at the broker, %v in the session", i, j, bs, ss)
			}
		}
	}
	// The instance must exercise what it compares: offers made, φ(δ) refusing
	// drained vendors, the capacity trim displacing admitted ones.
	fleet := b.funnel.fleetTotals()
	if offers == 0 || fleet[dispBelowThreshold] == 0 || fleet[dispDisplaced] == 0 {
		t.Fatalf("degenerate instance: %d offers, fleet funnel %v", offers, fleet)
	}
	t.Logf("%d offers; fleet funnel %v", offers, fleet)
	if b.gammaMin.Load() != gmin || b.gammaMax.Load() != gmax {
		t.Fatalf("γ bounds moved off the seeded truth: [%g, %g] → [%g, %g]", gmin, gmax, b.gammaMin.Load(), b.gammaMax.Load())
	}
	both := 0
	for j := range p.Vendors {
		fc, err := b.CampaignFunnel(int32(j))
		if err != nil {
			t.Fatal(err)
		}
		budgetless, wantLow := p.Vendors[j].Budget == 0, lowScore[j]
		if budgetless {
			// Filed under the budget filter, every time, whatever the score.
			both += int(lowScore[j])
			wantLow = 0
		}
		if fc.Gathered != gathered[j] || fc.LowScore != wantLow || budgetless && fc.Exhausted != gathered[j] {
			t.Errorf("vendor %d (budget %g): funnel gathered=%d exhausted=%d low_score=%d, want gathered=%d low_score=%d",
				j, p.Vendors[j].Budget, fc.Gathered, fc.Exhausted, fc.LowScore, gathered[j], wantLow)
		}
	}
	if both == 0 {
		t.Fatal("no in-range pair is both budgetless and low-scoring: the filter order is not exercised")
	}
}
