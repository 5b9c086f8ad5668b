package checkin

import (
	"sort"
	"testing"

	"muaa/internal/core"
	"muaa/internal/stats"
)

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Generate(Config{Users: 50, Venues: 200, Checkins: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateShape(t *testing.T) {
	ds := smallDataset(t)
	if ds.Users != 50 || len(ds.Venues) != 200 || len(ds.Records) != 4000 {
		t.Fatalf("shape: %d users, %d venues, %d records", ds.Users, len(ds.Venues), len(ds.Records))
	}
	for _, v := range ds.Venues {
		if v.Loc.X < 0 || v.Loc.X > 1 || v.Loc.Y < 0 || v.Loc.Y > 1 {
			t.Fatalf("venue %d location %v outside unit square", v.ID, v.Loc)
		}
		if int(v.Category) >= ds.Taxonomy.NumTags() {
			t.Fatalf("venue %d has unknown category", v.ID)
		}
		if !ds.Taxonomy.IsLeaf(v.Category) {
			t.Fatalf("venue %d category %s is not a leaf", v.ID, ds.Taxonomy.PathName(v.Category))
		}
	}
	for i, r := range ds.Records {
		if r.User < 0 || int(r.User) >= ds.Users {
			t.Fatalf("record %d has unknown user %d", i, r.User)
		}
		if r.Venue < 0 || int(r.Venue) >= len(ds.Venues) {
			t.Fatalf("record %d has unknown venue %d", i, r.Venue)
		}
		if r.Hour < 0 || r.Hour >= 24 {
			t.Fatalf("record %d hour %g outside [0,24)", i, r.Hour)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := smallDataset(t)
	b := smallDataset(t)
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatal("same seed produced different records")
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Users: -1}); err == nil {
		t.Error("negative users must be rejected")
	}
	if _, err := Generate(Config{PopularityExp: -2}); err == nil {
		t.Error("negative popularity exponent must be rejected")
	}
}

func TestPopularitySkew(t *testing.T) {
	ds := smallDataset(t)
	counts := ds.VenueCheckinCounts()
	sorted := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	head := 0
	for _, c := range sorted[:20] {
		head += c
	}
	// The top 10% of venues must own far more than 10% of check-ins.
	if head*3 < len(ds.Records) {
		t.Errorf("head-20 venues hold %d of %d check-ins — no popularity skew", head, len(ds.Records))
	}
}

func TestFilterMinCheckins(t *testing.T) {
	ds := smallDataset(t)
	min := 10
	f := ds.FilterMinCheckins(min)
	if len(f.Venues) == 0 || len(f.Venues) >= len(ds.Venues) {
		t.Fatalf("filter kept %d of %d venues — want a strict, non-empty subset", len(f.Venues), len(ds.Venues))
	}
	counts := f.VenueCheckinCounts()
	for v, c := range counts {
		if c < min {
			t.Fatalf("venue %d survived with only %d check-ins", v, c)
		}
	}
	// Venue IDs must be dense and self-consistent.
	for i, v := range f.Venues {
		if v.ID != int32(i) {
			t.Fatalf("venue %d has ID %d after renumbering", i, v.ID)
		}
	}
	for _, r := range f.Records {
		if int(r.Venue) >= len(f.Venues) {
			t.Fatalf("record references dropped venue %d", r.Venue)
		}
	}
	// No records lost except those of dropped venues.
	dropped := 0
	for _, c := range ds.VenueCheckinCounts() {
		if c < min {
			dropped += c
		}
	}
	if len(f.Records) != len(ds.Records)-dropped {
		t.Errorf("filtered records %d, want %d", len(f.Records), len(ds.Records)-dropped)
	}
}

func defaultProblemConfig() ProblemConfig {
	return ProblemConfig{
		Budget:   stats.Range{Lo: 10, Hi: 20},
		Radius:   stats.Range{Lo: 0.02, Hi: 0.03},
		Capacity: stats.Range{Lo: 1, Hi: 6},
		ViewProb: stats.Range{Lo: 0.1, Hi: 0.5},
		Seed:     2,
	}
}

func TestToProblem(t *testing.T) {
	ds := smallDataset(t).FilterMinCheckins(10)
	p, err := ToProblem(ds, defaultProblemConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Customers) != len(ds.Records) {
		t.Fatalf("one customer per check-in: %d vs %d", len(p.Customers), len(ds.Records))
	}
	if len(p.Vendors) != len(ds.Venues) {
		t.Fatalf("one vendor per venue: %d vs %d", len(p.Vendors), len(ds.Venues))
	}
	// Arrival-sorted.
	for i := 1; i < len(p.Customers); i++ {
		if p.Customers[i].Arrival < p.Customers[i-1].Arrival {
			t.Fatalf("customers not arrival-sorted at %d", i)
		}
	}
	// Interest vectors are taxonomy-sized and normalized.
	for i, u := range p.Customers {
		if len(u.Interests) != ds.Taxonomy.NumTags() {
			t.Fatalf("customer %d interests dimension %d", i, len(u.Interests))
		}
	}
}

func TestToProblemCaps(t *testing.T) {
	ds := smallDataset(t).FilterMinCheckins(10)
	cfg := defaultProblemConfig()
	cfg.MaxCustomers, cfg.MaxVendors = 100, 20
	p, err := ToProblem(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Customers) != 100 || len(p.Vendors) != 20 {
		t.Fatalf("caps not applied: %d customers, %d vendors", len(p.Customers), len(p.Vendors))
	}
}

func TestToProblemValidation(t *testing.T) {
	ds := smallDataset(t)
	bad := defaultProblemConfig()
	bad.ViewProb = stats.Range{Lo: 0.5, Hi: 2}
	if _, err := ToProblem(ds, bad); err == nil {
		t.Error("bad view probability range must be rejected")
	}
	bad = defaultProblemConfig()
	bad.Budget = stats.Range{Lo: 5, Hi: 1}
	if _, err := ToProblem(ds, bad); err == nil {
		t.Error("inverted budget range must be rejected")
	}
}

func TestCheckinProblemSolvable(t *testing.T) {
	// End-to-end: the converted problem runs through the online solver and
	// produces a feasible assignment with positive utility.
	ds := smallDataset(t).FilterMinCheckins(5)
	cfg := defaultProblemConfig()
	cfg.MaxCustomers = 300
	cfg.Radius = stats.Range{Lo: 0.05, Hi: 0.1}
	p, err := ToProblem(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.OnlineAFA{Seed: 1}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Utility <= 0 {
		t.Error("check-in problem yielded zero utility — conversion is probably broken")
	}
}

func TestDiurnalHoursFollowCategories(t *testing.T) {
	ds, err := Generate(Config{Users: 40, Venues: 300, Checkins: 8000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Nightlife check-ins must skew later than Travel check-ins.
	var nightHours, travelHours []float64
	for _, r := range ds.Records {
		path := ds.Taxonomy.Path(ds.Venues[r.Venue].Category)
		if len(path) < 2 {
			continue
		}
		switch ds.Taxonomy.Name(path[1]) {
		case "Nightlife":
			nightHours = append(nightHours, r.Hour)
		case "Travel":
			travelHours = append(travelHours, r.Hour)
		}
	}
	if len(nightHours) < 50 || len(travelHours) < 50 {
		t.Skip("not enough category samples")
	}
	nightMedian := stats.Summarize(nightHours).Median
	travelMedian := stats.Summarize(travelHours).Median
	if nightMedian <= travelMedian {
		t.Errorf("nightlife median hour %g not later than travel %g", nightMedian, travelMedian)
	}
}
