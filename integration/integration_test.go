// Package integration wires the whole system together end to end, the way a
// deployment would: simulate a city's check-in history, freeze it to disk,
// reload it, derive preference models (taxonomy and collaborative
// filtering), solve the resulting MUAA instance offline and online, replay
// the online assignment through the HTTP broker, and keep moving customers'
// vendor sets current with safe regions. Each test is one seam; together
// they cover every package boundary in the repository.
package integration

import (
	"bytes"
	"math"
	"testing"

	"muaa/internal/broker"
	"muaa/internal/cf"
	"muaa/internal/checkin"
	"muaa/internal/core"
	"muaa/internal/geo"
	"muaa/internal/mobility"
	"muaa/internal/model"
	"muaa/internal/persist"
	"muaa/internal/stats"
	"muaa/internal/viz"
	"muaa/internal/workload"
)

func cityDataset(t *testing.T) *checkin.Dataset {
	t.Helper()
	ds, err := checkin.Generate(checkin.Config{Users: 80, Venues: 400, Checkins: 8000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds.FilterMinCheckins(8)
}

func problemConfig() checkin.ProblemConfig {
	return checkin.ProblemConfig{
		Budget:       stats.Range{Lo: 10, Hi: 20},
		Radius:       stats.Range{Lo: 0.04, Hi: 0.08},
		Capacity:     stats.Range{Lo: 1, Hi: 4},
		ViewProb:     stats.Range{Lo: 0.2, Hi: 0.6},
		MaxCustomers: 800,
		Seed:         7,
	}
}

func TestPipelineDatasetToSolvedAssignment(t *testing.T) {
	ds := cityDataset(t)

	// Freeze and thaw the corpus — the experiment-shipping path.
	var frozen bytes.Buffer
	if err := persist.SaveDataset(&frozen, ds); err != nil {
		t.Fatal(err)
	}
	thawed, err := persist.LoadDataset(&frozen)
	if err != nil {
		t.Fatal(err)
	}

	p, err := checkin.ToProblem(thawed, problemConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Offline and online solves; online must stay within the offline bound.
	offline, err := core.Recon{Seed: 7}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	online, err := core.OnlineAFA{Seed: 7}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if offline.Utility <= 0 {
		t.Fatal("pipeline produced a worthless instance")
	}
	if online.Utility > offline.Utility+1e-9 {
		t.Errorf("online (%g) beat offline RECON (%g)", online.Utility, offline.Utility)
	}

	// The assignment freezes, thaws, and re-verifies against the problem.
	var buf bytes.Buffer
	if err := persist.SaveAssignment(&buf, online); err != nil {
		t.Fatal(err)
	}
	if _, err := persist.LoadAssignment(&buf, p); err != nil {
		t.Fatal(err)
	}

	// And renders.
	var svg bytes.Buffer
	if err := viz.SVG(&svg, p, &online, viz.Options{ShowEdges: true}); err != nil {
		t.Fatal(err)
	}
	if svg.Len() == 0 {
		t.Error("empty SVG")
	}
}

func TestPipelineCFPreferenceAgreesWithTaxonomyOnCommunities(t *testing.T) {
	ds := cityDataset(t)
	p, err := checkin.ToProblem(ds, problemConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Train CF on the same corpus and solve with it. The customer→user map
	// is not exposed by ToProblem, so CF here scores via a fresh mapping:
	// use GREEDY on the taxonomy problem and on a CF problem built over the
	// same geometry, and require both to find substantial utility — the
	// estimators must broadly agree on where value is.
	m, err := cf.TrainOnCheckins(ds, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Reuse geometry; score with CF through a table computed per pair.
	// (Small instance: table construction is O(m·n).)
	hist := make([]int32, len(p.Customers))
	for i := range hist {
		hist[i] = int32(i % ds.Users) // deterministic stand-in mapping
	}
	table := make(model.TablePreference, len(p.Customers))
	for i := range p.Customers {
		table[i] = make([]float64, len(p.Vendors))
		for j := range p.Vendors {
			table[i][j] = m.Score(hist[i], int32(j))
		}
	}
	cfProblem := *p
	cfProblem.Preference = table
	taxo, err := core.Greedy{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	cfRes, err := core.Greedy{}.Solve(&cfProblem)
	if err != nil {
		t.Fatal(err)
	}
	if taxo.Utility <= 0 || cfRes.Utility <= 0 {
		t.Errorf("one estimator found no value: taxonomy %g, CF %g", taxo.Utility, cfRes.Utility)
	}
}

// TestPipelineBrokerReplayIsFeasible replays the city's arrival stream
// through a broker with default configuration and checks the paper's
// feasibility contract: capacities, budgets, offer accounting. The decision-
// for-decision comparison with core.Session needs the γ bounds seeded, which
// only package broker can do: broker.TestKernelMatchesCoreSession.
func TestPipelineBrokerReplayIsFeasible(t *testing.T) {
	ds := cityDataset(t)
	p, err := checkin.ToProblem(ds, problemConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := broker.New(broker.Config{AdTypes: p.AdTypes})
	if err != nil {
		t.Fatal(err)
	}
	for j := range p.Vendors {
		v := &p.Vendors[j]
		if _, err := b.RegisterCampaignSpec(broker.CampaignSpec{Loc: v.Loc, Radius: v.Radius, Budget: v.Budget, Tags: v.Tags}); err != nil {
			t.Fatal(err)
		}
	}
	offers := 0
	for i := range p.Customers {
		u := &p.Customers[i]
		out, err := b.Arrive(broker.Arrival{
			Loc: u.Loc, Capacity: u.Capacity, ViewProb: u.ViewProb,
			Interests: u.Interests, Hour: u.Arrival,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) > u.Capacity {
			t.Fatalf("broker pushed %d > capacity %d", len(out), u.Capacity)
		}
		offers += len(out)
	}
	st := b.Stats()
	if int64(offers) != st.OffersPushed {
		t.Errorf("offer accounting mismatch: %d vs %d", offers, st.OffersPushed)
	}
	if st.UtilityServed <= 0 {
		t.Error("broker served no utility over a whole day of traffic")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineMovingCustomerSafeRegions(t *testing.T) {
	p, err := workload.Synthetic(workload.Config{
		Customers: 1,
		Vendors:   200,
		Budget:    stats.Range{Lo: 10, Hi: 20},
		Radius:    stats.Range{Lo: 0.05, Hi: 0.1},
		Capacity:  stats.Range{Lo: 1, Hi: 2},
		ViewProb:  stats.Range{Lo: 0.5, Hi: 0.9},
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(9)
	tr, err := mobility.RandomWaypoint(rng, geo.UnitSquare, 6, 1.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	tk := mobility.NewTracker(p.Vendors)
	ix := core.NewIndex(p)
	dt := (tr.End() - tr.Start()) / 400
	if dt <= 0 {
		t.Skip("degenerate trajectory")
	}
	for at := tr.Start(); at <= tr.End(); at += dt {
		loc := tr.At(at)
		valid, _ := tk.Update(loc)
		// Cross-check against the spatial index used by the solvers.
		p.Customers[0].Loc = loc
		want := ix.ValidVendors(nil, 0)
		if len(valid) != len(want) {
			t.Fatalf("tracker and index disagree at t=%g: %d vs %d vendors", at, len(valid), len(want))
		}
	}
	_, recomputes := tk.Counters()
	if recomputes == 0 {
		t.Error("moving customer never recomputed")
	}
}

func TestPipelineGammaEstimateStableAcrossSamples(t *testing.T) {
	ds := cityDataset(t)
	p, err := checkin.ToProblem(ds, problemConfig())
	if err != nil {
		t.Fatal(err)
	}
	small := core.EstimateGammaMin(p, 128, 1)
	large := core.EstimateGammaMin(p, 4096, 1)
	if small <= 0 || large <= 0 {
		t.Fatal("γ_min estimates must be positive on a live corpus")
	}
	// More samples can only find smaller-or-equal minima.
	if large > small+1e-12 {
		t.Errorf("larger sample raised the minimum: %g vs %g", large, small)
	}
	if math.IsInf(large, 0) {
		t.Error("estimate overflowed")
	}
}
