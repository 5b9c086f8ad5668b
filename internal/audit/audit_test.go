package audit

import (
	"math"
	"strings"
	"testing"

	"muaa/internal/geo"
	"muaa/internal/model"
)

func testAdTypes() []model.AdType {
	return []model.AdType{
		{Name: "cheap", Cost: 1, Effect: 0.5},
		{Name: "rich", Cost: 2, Effect: 1.5},
	}
}

// oneVendorInput: a single campaign covering a single arriving customer.
func oneVendorInput() Input {
	return Input{
		Mode:    "window",
		AdTypes: testAdTypes(),
		Campaigns: []Campaign{{
			ID: 0, Loc: geo.Point{X: 0.5, Y: 0.5}, Radius: 0.3, Budget: 10,
			Tags: []float64{1, 0},
		}},
		Arrivals: []Arrival{{
			Loc: geo.Point{X: 0.5, Y: 0.6}, Capacity: 2, ViewProb: 0.8,
			Interests: []float64{1, 0}, Hour: 12,
			Offers: []Offer{{Campaign: 0, AdType: 1, Cost: 2, Utility: 3}},
		}},
		GammaMin: 0.5,
		GammaMax: 4,
	}
}

func TestComputeEmptyStream(t *testing.T) {
	rep, err := Compute(Input{Mode: "window", AdTypes: testAdTypes()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EmpiricalRatio != 1 {
		t.Fatalf("empty stream ratio %g, want 1 (nothing achievable, nothing achieved)", rep.EmpiricalRatio)
	}
	if rep.Arrivals != 0 || rep.Offers != 0 || len(rep.CampaignAudits) != 0 {
		t.Fatalf("empty stream report: %+v", rep)
	}
	if _, err := Compute(Input{Mode: "window"}, Config{}); err == nil {
		t.Fatal("missing ad types must error")
	}
}

func TestComputeBasics(t *testing.T) {
	rep, err := Compute(oneVendorInput(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OnlineUtility != 3 {
		t.Fatalf("online utility %g", rep.OnlineUtility)
	}
	if rep.OracleUtility < rep.OnlineUtility {
		t.Fatalf("oracle %g below the feasible online outcome %g", rep.OracleUtility, rep.OnlineUtility)
	}
	if !(rep.EmpiricalRatio > 0 && rep.EmpiricalRatio <= 1) {
		t.Fatalf("ratio %g", rep.EmpiricalRatio)
	}
	ca := rep.CampaignAudits[0]
	if ca.SpentTotal != 2 || ca.SpentWindow != 2 || ca.Utilization != 0.2 {
		t.Fatalf("campaign accounting %+v", ca)
	}
	if len(ca.PacingCurve) != 10 || ca.PacingCurve[9] != 0.2 {
		t.Fatalf("pacing curve %v", ca.PacingCurve)
	}
	// Curve is monotone non-decreasing and ends at utilization.
	for d := 1; d < 10; d++ {
		if ca.PacingCurve[d] < ca.PacingCurve[d-1] {
			t.Fatalf("pacing curve not monotone: %v", ca.PacingCurve)
		}
	}
}

// TestComputeUnauditedArrivals: offers of arrivals outside the oracle
// problem (capacity 0) charge budgets but join neither ratio side.
func TestComputeUnauditedArrivals(t *testing.T) {
	in := oneVendorInput()
	in.Arrivals = append(in.Arrivals, Arrival{
		Offers: []Offer{{Campaign: 0, AdType: 0, Cost: 1, Utility: 99}},
	})
	rep, err := Compute(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OnlineUtility != 3 {
		t.Fatalf("unaudited offer leaked into online utility: %g", rep.OnlineUtility)
	}
	if rep.AuditedArrivals != 1 || rep.Arrivals != 2 {
		t.Fatalf("audited %d of %d", rep.AuditedArrivals, rep.Arrivals)
	}
	ca := rep.CampaignAudits[0]
	if ca.SpentTotal != 3 {
		t.Fatalf("unaudited offer must still charge: spent %g", ca.SpentTotal)
	}
	// The oracle's budget shrank by the unseen spend; with the bigger
	// baseline removed the ratio still holds.
	if !(rep.EmpiricalRatio > 0 && rep.EmpiricalRatio <= 1) {
		t.Fatalf("ratio %g", rep.EmpiricalRatio)
	}
}

func TestComputeRejectsBadInput(t *testing.T) {
	in := oneVendorInput()
	in.Arrivals[0].Offers[0].Campaign = 42
	if _, err := Compute(in, Config{}); err == nil || !strings.Contains(err.Error(), "unknown campaign") {
		t.Fatalf("unknown campaign: %v", err)
	}
	in = oneVendorInput()
	in.Arrivals[0].Offers[0].AdType = 9
	if _, err := Compute(in, Config{}); err == nil || !strings.Contains(err.Error(), "ad type") {
		t.Fatalf("bad ad type: %v", err)
	}
	in = oneVendorInput()
	in.Campaigns = append(in.Campaigns, in.Campaigns[0])
	if _, err := Compute(in, Config{}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate campaign: %v", err)
	}
}

// TestComputeMismatchedDimensions: interest/tag dimension mismatches score
// zero instead of panicking (the broker's ineligibility rule).
func TestComputeMismatchedDimensions(t *testing.T) {
	in := oneVendorInput()
	in.Arrivals[0].Interests = []float64{1, 0, 0.5, 0.25} // 4 dims vs 2 tags
	rep, err := Compute(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The oracle can't use the mismatched pair, but the online offers stand;
	// oracle = max(..., online) keeps the ratio at 1.
	if rep.EmpiricalRatio != 1 || rep.OracleSolver != "ONLINE" {
		t.Fatalf("ratio %g via %s", rep.EmpiricalRatio, rep.OracleSolver)
	}
}

func TestComputeDeterministicEncoding(t *testing.T) {
	a, err := Compute(oneVendorInput(), Config{UseRecon: true, Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(oneVendorInput(), Config{UseRecon: true, Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := a.EncodeJSON()
	jb, _ := b.EncodeJSON()
	if string(ja) != string(jb) {
		t.Fatal("same input produced different report bytes")
	}
	if !strings.Contains(string(ja), `"schema": "muaa-audit/1"`) {
		t.Fatal("schema marker missing")
	}
}

func TestObservedG(t *testing.T) {
	if g := observedG(Input{G: 7}); g != 7 {
		t.Fatalf("configured g ignored: %g", g)
	}
	if g := observedG(Input{}); g != 2*math.E {
		t.Fatalf("unseen default %g, want 2e", g)
	}
	if g := observedG(Input{GammaMin: 1, GammaMax: 1e12}); g != 1e9 {
		t.Fatalf("clamp high: %g", g)
	}
	if g := observedG(Input{GammaMin: 1, GammaMax: 2}); g != 2*math.E {
		t.Fatalf("clamp low: %g", g)
	}
}
