package model

import (
	"math"
	"strings"
	"testing"

	"muaa/internal/geo"
)

// twoByTwo builds a minimal validated problem: two customers, two vendors,
// two ad types, preferences via table.
func twoByTwo() *Problem {
	return &Problem{
		Customers: []Customer{
			{ID: 0, Loc: geo.Point{X: 0.1, Y: 0.1}, Capacity: 2, ViewProb: 0.5},
			{ID: 1, Loc: geo.Point{X: 0.9, Y: 0.9}, Capacity: 1, ViewProb: 0.25},
		},
		Vendors: []Vendor{
			{ID: 0, Loc: geo.Point{X: 0.1, Y: 0.2}, Radius: 0.3, Budget: 3},
			{ID: 1, Loc: geo.Point{X: 0.8, Y: 0.9}, Radius: 0.2, Budget: 1},
		},
		AdTypes: []AdType{
			{Name: "TL", Cost: 1, Effect: 0.1},
			{Name: "PL", Cost: 2, Effect: 0.4},
		},
		Preference: TablePreference{{0.8, 0.1}, {0.2, 0.9}},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := twoByTwo().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	mutate := map[string]func(*Problem){
		"no ad types":     func(p *Problem) { p.AdTypes = nil },
		"zero cost":       func(p *Problem) { p.AdTypes[0].Cost = 0 },
		"negative effect": func(p *Problem) { p.AdTypes[0].Effect = -1 },
		"customer id":     func(p *Problem) { p.Customers[1].ID = 5 },
		"neg capacity":    func(p *Problem) { p.Customers[0].Capacity = -1 },
		"view prob >1":    func(p *Problem) { p.Customers[0].ViewProb = 1.5 },
		"view prob NaN":   func(p *Problem) { p.Customers[0].ViewProb = math.NaN() },
		"vendor id":       func(p *Problem) { p.Vendors[0].ID = 7 },
		"neg radius":      func(p *Problem) { p.Vendors[0].Radius = -0.1 },
		"neg budget":      func(p *Problem) { p.Vendors[1].Budget = -2 },
	}
	for name, f := range mutate {
		p := twoByTwo()
		f(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: want validation error", name)
		}
	}
}

func TestInRange(t *testing.T) {
	p := twoByTwo()
	if !p.InRange(0, 0) {
		t.Error("u0 at distance 0.1 must be in v0's 0.3 disk")
	}
	if p.InRange(0, 1) {
		t.Error("u0 must be outside v1's disk")
	}
	if !p.InRange(1, 1) {
		t.Error("u1 at distance 0.1 must be inside v1's 0.2 disk")
	}
}

func TestDistanceFloor(t *testing.T) {
	p := twoByTwo()
	p.Vendors[0].Loc = p.Customers[0].Loc // coincident
	if got := p.Distance(0, 0); got != DefaultMinDist {
		t.Errorf("Distance = %g, want floor %g", got, DefaultMinDist)
	}
	p.MinDist = 0.05
	if got := p.Distance(0, 0); got != 0.05 {
		t.Errorf("Distance = %g, want configured floor 0.05", got)
	}
	// Above the floor the true distance is returned.
	p.Vendors[0].Loc = geo.Point{X: 0.1, Y: 0.2}
	if got, want := p.Distance(0, 0), 0.1; math.Abs(got-want) > 1e-12 {
		t.Errorf("Distance = %g, want %g", got, want)
	}
}

func TestUtilityEquation4(t *testing.T) {
	p := twoByTwo()
	// λ = p_i · β_k · s / d = 0.5 · 0.4 · 0.8 / 0.1 = 1.6
	if got := p.Utility(0, 0, 1); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("Utility = %g, want 1.6", got)
	}
	// Efficiency divides by cost: 1.6 / 2 = 0.8.
	if got := p.Efficiency(0, 0, 1); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Efficiency = %g, want 0.8", got)
	}
}

func TestUtilityMonotonicity(t *testing.T) {
	p := twoByTwo()
	base := p.Utility(0, 0, 0)
	// Higher view probability → higher utility.
	p.Customers[0].ViewProb = 0.9
	if p.Utility(0, 0, 0) <= base {
		t.Error("utility must grow with view probability")
	}
	p.Customers[0].ViewProb = 0.5
	// Higher effectiveness → higher utility.
	if p.Utility(0, 0, 1) <= p.Utility(0, 0, 0) {
		t.Error("utility must grow with ad effectiveness")
	}
	// Larger distance → lower utility.
	p.Vendors[0].Loc = geo.Point{X: 0.1, Y: 0.35}
	if p.Utility(0, 0, 0) >= base {
		t.Error("utility must shrink with distance")
	}
}

func TestPrefScoreClamping(t *testing.T) {
	p := twoByTwo()
	p.Preference = TablePreference{{-0.5, 2.0}, {0.5, math.NaN()}}
	if got := p.PrefScore(0, 0); got != 0 {
		t.Errorf("negative preference must clamp to 0, got %g", got)
	}
	if got := p.PrefScore(0, 1); got != 1 {
		t.Errorf("preference above 1 must clamp to 1, got %g", got)
	}
	if got := p.PrefScore(1, 1); got != 0 {
		t.Errorf("NaN preference must clamp to 0, got %g", got)
	}
}

func TestTotalUtility(t *testing.T) {
	p := twoByTwo()
	ins := []Instance{{Customer: 0, Vendor: 0, AdType: 0}, {Customer: 0, Vendor: 0, AdType: 1}}
	want := p.Utility(0, 0, 0) + p.Utility(0, 0, 1)
	if got := p.TotalUtility(ins); math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalUtility = %g, want %g", got, want)
	}
	if got := p.TotalUtility(nil); got != 0 {
		t.Errorf("empty TotalUtility = %g", got)
	}
}

func TestCheckAcceptsFeasible(t *testing.T) {
	p := twoByTwo()
	ins := []Instance{
		{Customer: 0, Vendor: 0, AdType: 1}, // cost 2 ≤ 3
		{Customer: 1, Vendor: 1, AdType: 0}, // cost 1 ≤ 1
	}
	if err := p.Check(ins); err != nil {
		t.Fatal(err)
	}
	if err := p.Check(nil); err != nil {
		t.Fatalf("empty set must be feasible: %v", err)
	}
}

func TestCheckViolations(t *testing.T) {
	p := twoByTwo()
	cases := map[string]struct {
		ins  []Instance
		frag string
	}{
		"unknown customer": {[]Instance{{Customer: 9, Vendor: 0, AdType: 0}}, "unknown customer"},
		"unknown vendor":   {[]Instance{{Customer: 0, Vendor: 9, AdType: 0}}, "unknown vendor"},
		"unknown ad type":  {[]Instance{{Customer: 0, Vendor: 0, AdType: 9}}, "unknown ad type"},
		"out of range":     {[]Instance{{Customer: 0, Vendor: 1, AdType: 0}}, "range constraint"},
		"duplicate pair": {[]Instance{
			{Customer: 0, Vendor: 0, AdType: 0},
			{Customer: 0, Vendor: 0, AdType: 1},
		}, "assigned twice"},
		"over budget": {[]Instance{
			// v1 budget is 1; a PL costs 2.
			{Customer: 1, Vendor: 1, AdType: 1},
		}, "budget"},
	}
	for name, c := range cases {
		err := p.Check(c.ins)
		if err == nil {
			t.Errorf("%s: want error", name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", name, err, c.frag)
		}
	}
}

func TestCheckCapacity(t *testing.T) {
	p := twoByTwo()
	p.Vendors[1] = Vendor{ID: 1, Loc: geo.Point{X: 0.2, Y: 0.1}, Radius: 0.3, Budget: 5}
	p.Customers[0].Capacity = 1
	ins := []Instance{
		{Customer: 0, Vendor: 0, AdType: 0},
		{Customer: 0, Vendor: 1, AdType: 0},
	}
	err := p.Check(ins)
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("capacity violation not caught: %v", err)
	}
}

func TestTheta(t *testing.T) {
	p := twoByTwo()
	// u0: 1 valid vendor (v0), capacity 2 → n_c = max(1, 2) = 2 → 2/2 = 1.
	// u1: 1 valid vendor (v1), capacity 1 → n_c = 1 → 1/1 = 1.
	if got := p.Theta(); got != 1 {
		t.Errorf("Theta = %g, want 1", got)
	}
	// Put both vendors in range of u0 with capacity 1: θ = 1/2.
	p.Vendors[1] = Vendor{ID: 1, Loc: geo.Point{X: 0.2, Y: 0.1}, Radius: 0.3, Budget: 5}
	p.Customers[0].Capacity = 1
	if got := p.Theta(); got != 0.5 {
		t.Errorf("Theta = %g, want 0.5", got)
	}
	// Paused vendors covering u0 are not valid: θ does not move.
	for id := int32(2); id < 5; id++ {
		p.Vendors = append(p.Vendors, Vendor{ID: id, Loc: geo.Point{X: 0.15, Y: 0.1}, Radius: 0.3, Budget: 5, Paused: true})
	}
	if got := p.Theta(); got != 0.5 {
		t.Errorf("Theta with paused covering vendors = %g, want 0.5", got)
	}
	// No customers → 1.
	empty := &Problem{AdTypes: p.AdTypes}
	if got := empty.Theta(); got != 1 {
		t.Errorf("Theta of empty problem = %g, want 1", got)
	}
}

func TestInstanceString(t *testing.T) {
	in := Instance{Customer: 1, Vendor: 2, AdType: 0}
	if got := in.String(); got != "⟨u1, v2, τ0⟩" {
		t.Errorf("String = %q", got)
	}
}

func TestCounts(t *testing.T) {
	p := twoByTwo()
	if p.NumCustomers() != 2 || p.NumVendors() != 2 || p.NumAdTypes() != 2 {
		t.Error("count accessors wrong")
	}
}
