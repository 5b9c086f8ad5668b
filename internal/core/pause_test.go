package core

import (
	"strings"
	"testing"

	"muaa/internal/geo"
	"muaa/internal/model"
)

// pausedProblem: one customer with slack capacity covered by two identical
// vendors, one of them paused. Any solver that serves the paused vendor is
// spending budget the online broker was forbidden to touch.
func pausedProblem() *model.Problem {
	return &model.Problem{
		AdTypes: []model.AdType{{Name: "ad", Cost: 1, Effect: 1}},
		Customers: []model.Customer{{
			ID: 0, Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 2, ViewProb: 1,
			Interests: []float64{1, 0}, Arrival: 12,
		}},
		Vendors: []model.Vendor{
			{ID: 0, Loc: geo.Point{X: 0.5, Y: 0.6}, Radius: 0.3, Budget: 10, Tags: []float64{1, 0}},
			{ID: 1, Loc: geo.Point{X: 0.5, Y: 0.4}, Radius: 0.3, Budget: 10, Tags: []float64{1, 0}, Paused: true},
		},
	}
}

// TestPausedVendorExcluded: every solver family skips paused vendors — the
// index never surfaces them, Recon's per-vendor loop skips them — so the
// counterfactual grid cannot spend paused budgets (DESIGN.md §12).
func TestPausedVendorExcluded(t *testing.T) {
	p := pausedProblem()
	solvers := []Solver{Greedy{}, &WindowOracle{}, Recon{Workers: 1}, Exact{}, OnlineAFA{}}
	for _, s := range solvers {
		a, err := s.Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(a.Instances) != 1 {
			t.Fatalf("%s served %d instances, want 1 (paused vendor excluded)", s.Name(), len(a.Instances))
		}
		if a.Instances[0].Vendor != 0 {
			t.Fatalf("%s served paused vendor: %v", s.Name(), a.Instances[0])
		}
	}
}

// TestCheckRejectsPausedVendor: the feasibility checker enforces the
// exclusion, so no solver can serve a paused vendor silently.
func TestCheckRejectsPausedVendor(t *testing.T) {
	p := pausedProblem()
	err := p.Check([]model.Instance{{Customer: 0, Vendor: 1, AdType: 0}})
	if err == nil || !strings.Contains(err.Error(), "paused") {
		t.Fatalf("paused assignment must fail Check, got %v", err)
	}
	if err := p.Check([]model.Instance{{Customer: 0, Vendor: 0, AdType: 0}}); err != nil {
		t.Fatalf("active assignment rejected: %v", err)
	}
}
