package audit

// Regression tests for the DESIGN §13 artifact fix (pause-aware oracle) and
// the revenue accounting of the slate economics layer.

import (
	"math"
	"testing"

	"muaa/internal/geo"
	"muaa/internal/model"
)

// pauseHeavyInput models the §13 ramp: one active campaign the online broker
// actually served, plus whale campaigns that are paused at the end of the
// stream. The recorded offer's utility is the model-computed value (base
// 0.8·1/0.1 = 8 times the rich effect 1.5), so online and oracle price the
// same instance identically.
func pauseHeavyInput() Input {
	point := geo.Point{X: 0.5, Y: 0.5}
	campaigns := []Campaign{{
		ID: 0, Loc: point, Radius: 0.3, Budget: 10, Tags: []float64{1, 0},
	}}
	for id := int32(1); id <= 5; id++ {
		campaigns = append(campaigns, Campaign{
			ID: id, Loc: point, Radius: 0.3, Budget: 1000, Tags: []float64{1, 0},
			Paused: true,
		})
	}
	return Input{
		Mode:      "window",
		AdTypes:   testAdTypes(),
		Campaigns: campaigns,
		Arrivals: []Arrival{{
			Loc: geo.Point{X: 0.5, Y: 0.6}, Capacity: 3, ViewProb: 0.8,
			Interests: []float64{1, 0}, Hour: 12,
			Offers: []Offer{{Campaign: 0, AdType: 1, Cost: 2, Utility: 12}},
		}},
		GammaMin: 0.5,
		GammaMax: 6,
	}
}

// TestComputePauseHeavyRatio pins the corrected ratio on a pause-heavy ramp:
// with paused campaigns excluded the online broker is measured only against
// budgets it could touch (ratio 1), while the pre-fix problem — the same
// input with the pause flags dropped — lets the oracle spend five paused
// whale budgets and depresses the ratio to 1/3 for reasons no admission
// policy can fix.
func TestComputePauseHeavyRatio(t *testing.T) {
	rep, err := Compute(pauseHeavyInput(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PausedCampaigns != 5 {
		t.Fatalf("paused campaigns %d, want 5", rep.PausedCampaigns)
	}
	if rep.EmpiricalRatio < 0.999 {
		t.Fatalf("pause-aware ratio %g, want ~1 (paused budgets out of reach)", rep.EmpiricalRatio)
	}

	// The pre-fix counterfactual: same stream, pause state discarded.
	blind := pauseHeavyInput()
	for i := range blind.Campaigns {
		blind.Campaigns[i].Paused = false
	}
	old, err := Compute(blind, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if old.PausedCampaigns != 0 {
		t.Fatalf("paused campaigns %d, want 0", old.PausedCampaigns)
	}
	if math.Abs(old.EmpiricalRatio-1.0/3) > 1e-6 {
		t.Fatalf("pause-blind ratio %g, want 1/3 (oracle eats the paused budgets)", old.EmpiricalRatio)
	}
}

// TestComputeRevenue pins the expected-value revenue accounting: immediate
// offers contribute their realized cost, deferred offers their rate-weighted
// escrow hold, the oracle's slate is priced at first-price expectation, and
// the caller's billing telemetry passes through verbatim.
func TestComputeRevenue(t *testing.T) {
	in := oneVendorInput()
	in.Campaigns[0].Billing = model.Billing{Model: model.BillingCPC, ReserveECPM: 10, EventRate: 0.5}
	in.Arrivals[0].Offers[0] = Offer{
		Campaign: 0, AdType: 1, Cost: 0, Utility: 3,
		Model: model.BillingCPC, ChargeECPM: 135,
	}
	in.EscrowHeld = 0.27
	in.ConvertedRevenue = 0.5
	in.Conversions = 4
	rep, err := Compute(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 135.0 / 1000; rep.OnlineRevenue != want {
		t.Fatalf("online revenue %g, want deferred charge %g", rep.OnlineRevenue, want)
	}
	// The oracle assigns the one valid pair its best ad type (rich, cost 2);
	// CPC first-price expectation is cost × event rate.
	if want := 2 * 0.5; rep.OracleRevenue != want {
		t.Fatalf("oracle revenue %g, want %g", rep.OracleRevenue, want)
	}
	if want := (135.0 / 1000) / 1.0; rep.RevenueRatio != want {
		t.Fatalf("revenue ratio %g, want %g", rep.RevenueRatio, want)
	}
	if rep.EscrowHeld != 0.27 || rep.ConvertedRevenue != 0.5 || rep.Conversions != 4 {
		t.Fatalf("billing telemetry lost: %+v", rep)
	}
}

// TestComputeRevenueFixedStream: an all-fixed stream reports revenue equal
// to its audited spend and a neutral telemetry block — the seed behavior.
func TestComputeRevenueFixedStream(t *testing.T) {
	rep, err := Compute(oneVendorInput(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OnlineRevenue != 2 {
		t.Fatalf("fixed online revenue %g, want the offer cost 2", rep.OnlineRevenue)
	}
	if rep.OracleRevenue != 2 {
		t.Fatalf("fixed oracle revenue %g, want the assigned catalog cost 2", rep.OracleRevenue)
	}
	if rep.EscrowHeld != 0 || rep.Conversions != 0 || rep.ConvertedRevenue != 0 {
		t.Fatalf("fixed stream carries billing telemetry: %+v", rep)
	}
}
