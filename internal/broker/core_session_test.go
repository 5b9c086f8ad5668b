package broker

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

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
// must file it under the first filter that applies (DESIGN.md §6).
//
// The session scores through the one-shot model.PearsonPreference.Score, the
// kernel through model.UnitPearson prepared at registration and per arrival,
// so this is also the prepared scorer's end-to-end oracle. Seeded mutations
// that fail it (PR 23): dropping the centring in UnitPearson.Prepare
// (d = v: arrival 0 differs on the checkin city), and squaring one side's
// sum of squares in Score (Sqrt(p.cov·p.cov): arrival 57). Swapping the two
// sums is not a mutation — the product commutes.
//
// The seeded streams have no paused campaign and one taxonomy, so the quick
// subtest draws small random fleets that have both (quickSessionCase): terms
// reads every gathered campaign before it filters any, and these are the
// dispositions where reading the wrong row, or filtering in the wrong order,
// shows. Seeded kernel mutations, each run by hand and each failing here
// (PR 27): two terms filters swapped — budget before paused (quick, instance
// 1: a paused budgetless vendor filed under exhausted; the seeded streams
// pass it) or tag dimension before budget (quick, instance 2); trim keeping
// capacity+1 (synthetic, arrival 0); the filter loop reading
// ar.rows[i-1].budget for row i (synthetic, arrival 16; checkin, arrival 0;
// quick, instance 1).
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
				// The instance must exercise what it compares: offers made, φ(δ)
				// refusing drained vendors, the capacity trim displacing admitted
				// ones, and a pair both budgetless and low-scoring.
				fleet, both, err := replayAgainstSession(sessionCase{p: tc.p, stripes: stripes})
				if err != nil {
					t.Fatal(err)
				}
				if fleet[dispOffered] == 0 || fleet[dispBelowThreshold] == 0 || fleet[dispDisplaced] == 0 {
					t.Fatalf("degenerate instance: fleet funnel %v", fleet)
				}
				if both == 0 {
					t.Fatal("no in-range pair is both budgetless and low-scoring: the filter order is not exercised")
				}
				t.Logf("fleet funnel %v", fleet)
			})
		}
	}
	t.Run("quick", func(t *testing.T) {
		var fleet [numDispositions]uint64
		instance := 0
		property := func(seed int64, vendors, customers uint8) bool {
			instance++
			for _, stripes := range []int{1, 8} {
				got, _, err := replayAgainstSession(quickSessionCase(seed, vendors, customers, stripes))
				if err != nil {
					t.Errorf("instance %d (seed %d, stripes %d): %v", instance, seed, stripes, err)
					return false
				}
				for d, n := range got {
					fleet[d] += n
				}
			}
			return true
		}
		if err := quick.Check(property, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(27))}); err != nil {
			t.Fatal(err)
		}
		for _, d := range []funnelDisposition{dispOffered, dispPaused, dispExhausted, dispTagMismatch,
			dispLowScore, dispBelowThreshold, dispDisplaced} {
			if fleet[d] == 0 {
				t.Errorf("no instance produced disposition %s", dispositionNames[d])
			}
		}
		t.Logf("fleet funnel over all instances %v", fleet)
	})
}

// sessionCase is one instance of the comparison: the problem as the session
// sees it, and what only the broker can express. A paused vendor carries
// budget 0 in p — the session has no pause, and skips a budgetless vendor —
// and is registered at the broker with pausedBudget, then paused.
type sessionCase struct {
	p       *model.Problem
	paused  []bool // by vendor; nil = none
	stripes int
}

const pausedBudget = 7

// mixedTaxonomies is the session's Eq. 5 over a fleet that mixes tag
// dimensions: a mismatched pair scores 0 — no utility, never pushed — which is
// what the broker's tag_mismatch filter means; every other pair is the
// problem's default scorer.
type mixedTaxonomies struct{}

func (mixedTaxonomies) Score(u *model.Customer, v *model.Vendor, hour float64) float64 {
	if len(u.Interests) != len(v.Tags) {
		return 0
	}
	return model.PearsonPreference{Activity: model.UniformActivity{}}.Score(u, v, hour)
}

// quickSessionCase draws a small fleet (≤ 64 vendors, ≤ 200 customers) in
// which about a sixth of the vendors each are paused, budgetless, or tagged
// in a second taxonomy — overlapping, so every filter meets campaigns an
// earlier one would also have dropped.
func quickSessionCase(seed int64, vendors, customers uint8, stripes int) sessionCase {
	p, err := workload.Synthetic(workload.Config{
		Customers: 1 + int(customers)%200, Vendors: 1 + int(vendors)%64, NumTags: 8,
		Budget:   stats.Range{Lo: 2, Hi: 8},
		Radius:   stats.Range{Lo: 0.15, Hi: 0.4},
		Capacity: stats.Range{Lo: 0, Hi: 3},
		ViewProb: stats.Range{Lo: 0.2, Hi: 0.9},
		Seed:     seed,
	})
	if err != nil {
		panic(err) // the ranges above are fixed and valid
	}
	p.Preference = mixedTaxonomies{}
	rng := rand.New(rand.NewSource(seed))
	paused := make([]bool, len(p.Vendors))
	for j := range p.Vendors {
		v := &p.Vendors[j]
		if rng.Intn(6) == 0 {
			v.Tags = v.Tags[:3]
		}
		if rng.Intn(6) == 0 {
			v.Budget = 0
		}
		if rng.Intn(6) == 0 {
			paused[j], v.Budget = true, 0
		}
	}
	return sessionCase{p: p, paused: paused, stripes: stripes}
}

// replayAgainstSession runs tc's customers through a broker and a session
// side by side and returns the column sums of the broker's funnel rows and
// the number of in-range pairs that were both budgetless and low-scoring, or
// the first disagreement.
func replayAgainstSession(tc sessionCase) (fleet [numDispositions]uint64, both int, err error) {
	p, stripes := tc.p, tc.stripes
	isPaused := func(j int) bool { return tc.paused != nil && tc.paused[j] }
	// Brute-force γ bounds and the reference filter classification.
	gmin, gmax := math.Inf(1), 0.0
	gathered := make([]uint64, len(p.Vendors))
	lowScore := make([]uint64, len(p.Vendors))
	mismatch := make([]uint64, len(p.Vendors))
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
			if len(p.Customers[i].Interests) != len(p.Vendors[j].Tags) {
				mismatch[j]++
			} else if p.PrefScore(ui, vj) == 0 {
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
	if gmax == 0 {
		return fleet, 0, nil // no positive efficiency anywhere: neither side can push
	}
	g := max(math.E*gmax/gmin, 2*math.E)

	b, err := New(Config{AdTypes: p.AdTypes, G: g, Shards: stripes, Funnel: FunnelConfig{Enabled: true}})
	if err != nil {
		return fleet, 0, err
	}
	for j := range p.Vendors {
		v := &p.Vendors[j]
		budget := v.Budget
		if isPaused(j) && j%2 == 0 {
			budget = pausedBudget
		}
		id, err := b.RegisterCampaign(v.Loc, v.Radius, budget, v.Tags)
		if err != nil {
			return fleet, 0, err
		}
		if isPaused(j) {
			if err := b.SetPaused(id, true); err != nil {
				return fleet, 0, err
			}
		}
	}
	b.gammaMin.Store(gmin)
	b.gammaMax.Store(gmax)
	s, err := core.NewSession(p, core.OnlineAFA{GammaMin: gmin, G: g})
	if err != nil {
		return fleet, 0, err
	}

	type pick struct {
		vendor int32
		adType int
	}
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
			return fleet, 0, err
		}
		for _, o := range out {
			got = append(got, pick{o.Campaign, o.AdType})
		}
		if !slices.Equal(got, want) {
			return fleet, 0, fmt.Errorf("arrival %d (capacity %d): broker pushed %v, session %v", i, u.Capacity, got, want)
		}
		for j, h := range b.Campaigns() {
			if bs, ss := h.Spent, s.Spent(int32(j)); math.Float64bits(bs) != math.Float64bits(ss) {
				return fleet, 0, fmt.Errorf("after arrival %d: vendor %d spent %v at the broker, %v in the session", i, j, bs, ss)
			}
		}
	}
	if b.gammaMin.Load() != gmin || b.gammaMax.Load() != gmax {
		return fleet, 0, fmt.Errorf("γ bounds moved off the seeded truth: [%g, %g] → [%g, %g]", gmin, gmax, b.gammaMin.Load(), b.gammaMax.Load())
	}
	// Every gathered vendor is filed under the first filter that applies —
	// paused, budget, tag dimension, score — every time, whatever a later one
	// would have said.
	for j := range p.Vendors {
		fc, err := b.CampaignFunnel(int32(j))
		if err != nil {
			return fleet, 0, err
		}
		for d, v := range fc.dispositions() {
			fleet[d] += v
		}
		want := FunnelCounts{Campaign: int32(j), Gathered: gathered[j]}
		switch {
		case isPaused(j):
			want.Paused = gathered[j]
		case p.Vendors[j].Budget == 0:
			want.Exhausted = gathered[j]
			both += int(lowScore[j])
		default:
			want.TagMismatch, want.LowScore = mismatch[j], lowScore[j]
		}
		if fc.Gathered != want.Gathered || fc.Paused != want.Paused || fc.TagMismatch != want.TagMismatch ||
			fc.LowScore != want.LowScore || fc.Exhausted < want.Exhausted {
			return fleet, 0, fmt.Errorf("vendor %d (budget %g): funnel %+v, want gathered/paused/tag_mismatch/low_score of %+v and at least its exhausted",
				j, p.Vendors[j].Budget, fc, want)
		}
	}
	return fleet, both, nil
}
