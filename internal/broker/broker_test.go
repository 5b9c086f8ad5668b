package broker

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

func newTestBroker(t *testing.T) *Broker {
	t.Helper()
	b, err := New(Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// RegisterCampaign is the tests' shorthand for a best-effort, fixed-cost spec.
func (b *Broker) RegisterCampaign(loc geo.Point, radius, budget float64, tags []float64) (int32, error) {
	return b.RegisterCampaignSpec(CampaignSpec{Loc: loc, Radius: radius, Budget: budget, Tags: tags})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty ad-type catalog must be rejected")
	}
	if _, err := New(Config{AdTypes: []model.AdType{{Name: "x", Cost: 0, Effect: 1}}}); err == nil {
		t.Error("zero-cost ad type must be rejected")
	}
	if _, err := New(Config{AdTypes: workload.DefaultAdTypes(), G: 2}); err == nil {
		t.Error("g ≤ e must be rejected")
	}
	if _, err := New(Config{AdTypes: workload.DefaultAdTypes(), G: 6}); err != nil {
		t.Errorf("g = 6 must be accepted: %v", err)
	}
	// Non-finite values are configuration errors: a NaN g once booted and made
	// GET /v1/stats a 500, and a NaN effect or an infinite cost makes an ad
	// type that can never be offered.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"effect NaN", Config{AdTypes: []model.AdType{{Name: "x", Cost: 1, Effect: nan}}}},
		{"effect +Inf", Config{AdTypes: []model.AdType{{Name: "x", Cost: 1, Effect: inf}}}},
		{"cost +Inf", Config{AdTypes: []model.AdType{{Name: "x", Cost: inf, Effect: 1}}}},
		{"g NaN", Config{AdTypes: workload.DefaultAdTypes(), G: nan}},
		{"g +Inf", Config{AdTypes: workload.DefaultAdTypes(), G: inf}},
		{"pacing +Inf", Config{AdTypes: workload.DefaultAdTypes(), Pacing: inf}},
	} {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s must be rejected", tc.name)
		}
	}
	// The stripe count is capped where defaultShards clamps it: an uncapped
	// -shards 1000000 once allocated a million grids before answering.
	if err := (&Config{AdTypes: workload.DefaultAdTypes(), Shards: 65}).Validate(); err == nil {
		t.Error("65 shards must be rejected")
	}
	ceiling := Config{AdTypes: workload.DefaultAdTypes(), Shards: 64}
	if err := ceiling.Validate(); err != nil {
		t.Errorf("64 shards must be accepted: %v", err)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = ceiling.Validate() }); allocs != 0 {
		t.Errorf("Validate allocated %g times; it must check, not build", allocs)
	}
}

func TestRegisterAndState(t *testing.T) {
	b := newTestBroker(t)
	id, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.1, 10, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.CampaignState(id)
	if err != nil {
		t.Fatal(err)
	}
	if c.Budget != 10 || c.Spent != 0 || c.Remaining() != 10 || c.Paused {
		t.Errorf("campaign state %+v", c)
	}
	if _, err := b.CampaignState(99); err == nil {
		t.Error("unknown campaign must error")
	}
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, -1, 10, nil); err == nil {
		t.Error("negative radius must be rejected")
	}
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 1, -10, nil); err == nil {
		t.Error("negative budget must be rejected")
	}
}

// TestRegisterChecksTags: a non-finite tag once registered through the Go API
// and made GET /v1/campaigns/{id} a 500 ("json: unsupported value: NaN") for
// the life of the process. Any finite magnitude still registers, renders, and
// is served around — its Eq. 5 sums overflow to a NaN score, a low_score drop.
func TestRegisterChecksTags(t *testing.T) {
	b := newTestBroker(t)
	at := geo.Point{X: 0.5, Y: 0.5}
	for _, tc := range []struct {
		name string
		tags []float64
		want string // "" registers
	}{
		{"NaN", []float64{1, math.NaN()}, "campaign tag 1 is NaN"},
		{"+Inf", []float64{math.Inf(1), 0}, "campaign tag 0 is +Inf"},
		{"-Inf", []float64{0, 0, math.Inf(-1)}, "campaign tag 2 is -Inf"},
		{"finite 1e308", []float64{1e308, 1e308}, ""},
	} {
		before := len(b.Campaigns())
		id, err := b.RegisterCampaign(at, 0.1, 10, tc.tags)
		if tc.want != "" {
			if err == nil || !strings.Contains(err.Error(), tc.want) || len(b.Campaigns()) != before {
				t.Errorf("%s: err %v, %d campaigns; want %q and no registration", tc.name, err, len(b.Campaigns()), tc.want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c, _ := b.CampaignState(id)
		if _, err := json.Marshal(c); err != nil {
			t.Errorf("%s: campaign state does not render: %v", tc.name, err)
		}
		offers, err := b.Arrive(Arrival{Loc: at, Capacity: 1, ViewProb: 1, Interests: []float64{0.2, 0.8}})
		if err != nil || len(offers) != 0 {
			t.Errorf("%s: arrival over it: %v, %v; want no offers, no error", tc.name, offers, err)
		}
	}
}

// TestRegisterChecksLocation: the campaign location was the one float the
// registration door never looked at. A NaN coordinate panicked inside the grid
// insert — after the WAL record was written and the directory entry published,
// with the stripe lock held — so the next arrival on that stripe blocked for
// good and Close never returned; ±Inf registered and, like a NaN tag, could not
// be rendered. Finite locations outside the square still register and clamp
// to an edge cell.
func TestRegisterChecksLocation(t *testing.T) {
	dir := t.TempDir()
	// Every record reaches the log file before its mutation returns, so the
	// directory can be read between operations.
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), DataDir: dir,
		WAL: wal.Options{Sync: wal.SyncEveryRecord, SnapshotEvery: -1}})
	if err != nil {
		t.Fatal(err)
	}
	walRecords := func() int {
		t.Helper()
		v, err := wal.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(v.Records)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		loc  geo.Point
		want string // "" registers
	}{
		{"NaN x", geo.Point{X: nan, Y: 0.5}, "campaign location (NaN, 0.5)"},
		{"NaN y", geo.Point{X: 0.5, Y: nan}, "campaign location (0.5, NaN)"},
		{"+Inf x", geo.Point{X: inf, Y: 0.5}, "campaign location (+Inf, 0.5)"},
		{"-Inf y", geo.Point{X: 0.5, Y: -inf}, "campaign location (0.5, -Inf)"},
		{"finite -5", geo.Point{X: -5, Y: 0.5}, ""},
		{"finite 1e300", geo.Point{X: 0.5, Y: 1e300}, ""},
	} {
		campaigns, records := len(b.Campaigns()), walRecords()
		id, err := b.RegisterCampaign(tc.loc, 0.1, 10, []float64{1, 0})
		if tc.want != "" {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: err %v, want %q", tc.name, err, tc.want)
			}
			if len(b.Campaigns()) != campaigns || walRecords() != records {
				t.Errorf("%s: refused, yet %d campaigns (was %d) and %d WAL records (was %d)",
					tc.name, len(b.Campaigns()), campaigns, walRecords(), records)
			}
		} else {
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			c, _ := b.CampaignState(id)
			if _, err := json.Marshal(c); err != nil {
				t.Errorf("%s: campaign state does not render: %v", tc.name, err)
			}
			if walRecords() != records+1 {
				t.Errorf("%s: %d WAL records after registering, want %d", tc.name, walRecords(), records+1)
			}
		}
		// The stripe a y of 0.5 maps to still serves (it once stayed locked).
		at := Arrival{Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 1, ViewProb: 1, Interests: []float64{0.2, 0.8}}
		if _, err := b.Arrive(at); err != nil {
			t.Fatalf("%s: arrival afterwards: %v", tc.name, err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestArriveServesCoveringCampaigns(t *testing.T) {
	b := newTestBroker(t)
	near, _ := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.52}, 0.1, 10, []float64{1, 0, 0.2})
	_, _ = b.RegisterCampaign(geo.Point{X: 0.9, Y: 0.9}, 0.05, 10, []float64{1, 0, 0.2}) // far away
	offers, err := b.Arrive(Arrival{
		Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 3, ViewProb: 0.8,
		Interests: []float64{0.9, 0.1, 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Campaign != near {
		t.Fatalf("offers = %+v, want one offer from the covering campaign", offers)
	}
	if offers[0].Utility <= 0 || offers[0].Cost <= 0 {
		t.Errorf("offer fields: %+v", offers[0])
	}
	c, _ := b.CampaignState(near)
	if c.Spent != offers[0].Cost {
		t.Errorf("spent %g, want %g", c.Spent, offers[0].Cost)
	}
}

func TestArriveRespectsCapacityAndBudget(t *testing.T) {
	b := newTestBroker(t)
	// Five covering campaigns, capacity 2: at most 2 offers.
	for i := 0; i < 5; i++ {
		if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5 + float64(i)*0.001}, 0.1, 100, []float64{1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	offers, err := b.Arrive(Arrival{
		Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 2, ViewProb: 0.5,
		Interests: []float64{0.8, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 2 {
		t.Fatalf("pushed %d offers, capacity 2", len(offers))
	}
	// A campaign with budget below the cheapest ad type serves nothing.
	b2 := newTestBroker(t)
	if _, err := b2.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.1, 0.5, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	offers, err = b2.Arrive(Arrival{
		Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 2, ViewProb: 0.5,
		Interests: []float64{0.8, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 0 {
		t.Errorf("insufficient budget still produced offers: %+v", offers)
	}
}

func TestArriveBudgetNeverOverspent(t *testing.T) {
	b := newTestBroker(t)
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 5, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := b.Arrive(Arrival{
			Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 1, ViewProb: 0.9,
			Interests: []float64{0.9, 0.1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	checkInvariants(t, b)
}

func TestPauseStopsTraffic(t *testing.T) {
	b := newTestBroker(t)
	id, _ := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 100, []float64{1, 0})
	if err := b.SetPaused(id, true); err != nil {
		t.Fatal(err)
	}
	offers, err := b.Arrive(Arrival{
		Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 1, ViewProb: 0.9,
		Interests: []float64{0.9, 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 0 {
		t.Error("paused campaign served traffic")
	}
	if err := b.SetPaused(id, false); err != nil {
		t.Fatal(err)
	}
	offers, _ = b.Arrive(Arrival{
		Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 1, ViewProb: 0.9,
		Interests: []float64{0.9, 0.1},
	})
	if len(offers) != 1 {
		t.Error("resumed campaign should serve traffic")
	}
	if err := b.SetPaused(42, true); err == nil {
		t.Error("pausing unknown campaign must error")
	}
}

func TestTopUpExtendsService(t *testing.T) {
	b := newTestBroker(t)
	id, _ := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 1, []float64{1, 0})
	arrive := func() []Offer {
		offers, err := b.Arrive(Arrival{
			Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 1, ViewProb: 0.9,
			Interests: []float64{0.9, 0.1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return offers
	}
	first := arrive() // spends the $1 text link
	if len(first) != 1 {
		t.Fatalf("first arrival offers = %+v", first)
	}
	if second := arrive(); len(second) != 0 {
		t.Fatalf("exhausted campaign still served: %+v", second)
	}
	if err := b.TopUp(id, 5); err != nil {
		t.Fatal(err)
	}
	if third := arrive(); len(third) != 1 {
		t.Error("top-up should restore service")
	}
	if err := b.TopUp(id, -1); err == nil {
		t.Error("negative top-up must be rejected")
	}
	if err := b.TopUp(42, 1); err == nil {
		t.Error("top-up of unknown campaign must error")
	}
}

func TestArriveValidation(t *testing.T) {
	b := newTestBroker(t)
	nan, inf := math.NaN(), math.Inf(1)
	ok := Arrival{Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 1, ViewProb: 0.5, Interests: []float64{1, 0}, Hour: 12}
	with := func(edit func(*Arrival)) Arrival {
		a := ok
		a.Interests = append([]float64(nil), ok.Interests...)
		edit(&a)
		return a
	}
	for _, tc := range []struct {
		name string
		a    Arrival
		want string // substring of the error; "" = accepted
	}{
		{"in range", ok, ""},
		{"midnight", with(func(a *Arrival) { a.Hour = 0 }), ""},
		{"end of day", with(func(a *Arrival) { a.Hour = 24 }), ""},
		{"negative capacity", with(func(a *Arrival) { a.Capacity = -1 }), "capacity"},
		{"largest capacity", with(func(a *Arrival) { a.Capacity = math.MaxInt32 }), ""},
		{"capacity past the log's 32 bits", with(func(a *Arrival) { a.Capacity = math.MaxInt32 + 1 }), "capacity"},
		{"capacity that wraps to 0 in 32 bits", with(func(a *Arrival) { a.Capacity = 1 << 32 }), "capacity"},
		{"view probability above 1", with(func(a *Arrival) { a.ViewProb = 1.5 }), "view probability"},
		{"NaN view probability", with(func(a *Arrival) { a.ViewProb = nan }), "view probability"},
		{"NaN x", with(func(a *Arrival) { a.Loc.X = nan }), "location"},
		{"infinite y", with(func(a *Arrival) { a.Loc.Y = -inf }), "location"},
		{"negative hour", with(func(a *Arrival) { a.Hour = -5 }), "hour"},
		{"hour past the day", with(func(a *Arrival) { a.Hour = 1e9 }), "hour"},
		{"NaN hour", with(func(a *Arrival) { a.Hour = nan }), "hour"},
		{"infinite hour", with(func(a *Arrival) { a.Hour = inf }), "hour"},
		{"NaN interest", with(func(a *Arrival) { a.Interests[1] = nan }), "interest 1"},
		{"infinite interest", with(func(a *Arrival) { a.Interests[0] = inf }), "interest 0"},
	} {
		_, err := b.Arrive(tc.a)
		_, xerr := b.Explain(tc.a)
		batched := b.ArriveBatch([]Arrival{ok, tc.a})
		if batched[0].Err != nil {
			t.Errorf("%s: valid neighbour rejected: %v", tc.name, batched[0].Err)
		}
		for door, got := range map[string]error{"Arrive": err, "Explain": xerr, "ArriveBatch": batched[1].Err} {
			switch {
			case tc.want == "" && got != nil:
				t.Errorf("%s: %s rejected it: %v", tc.name, door, got)
			case tc.want != "" && (got == nil || !strings.Contains(got.Error(), tc.want)):
				t.Errorf("%s: %s answered %v, want an error naming %q", tc.name, door, got, tc.want)
			}
		}
	}
	// Zero capacity is legal and yields no offers.
	offers, err := b.Arrive(Arrival{Capacity: 0, ViewProb: 0.5})
	if err != nil || offers != nil {
		t.Errorf("zero capacity: %v %v", offers, err)
	}
}

// TestHourCannotBypassPacing: the daily pacing allowance is Pacing × budget ×
// hour/24, so a client-supplied hour outside the day (or NaN, which fails
// every comparison) used to lift the cap entirely. Such arrivals must be
// refused at the door and spend nothing, where an honest early-morning hour
// is paced.
func TestHourCannotBypassPacing(t *testing.T) {
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Pacing: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 100, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	a := Arrival{Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 1, ViewProb: 0.9, Interests: []float64{0.9, 0.1}}
	if offers, err := b.Arrive(a); err != nil || len(offers) != 0 {
		t.Fatalf("hour 0 has no allowance yet: offers %v, err %v", offers, err)
	}
	for _, hour := range []float64{1e9, math.NaN(), math.Inf(1)} {
		a.Hour = hour
		if offers, err := b.Arrive(a); err == nil {
			t.Errorf("hour %g was served %d offers past the pacing cap", hour, len(offers))
		}
	}
	if st := b.Stats(); st.BudgetSpent != 0 || st.Arrivals != 1 {
		t.Fatalf("rejected arrivals moved state: %+v", st)
	}
}

func TestStatsAccumulate(t *testing.T) {
	b := newTestBroker(t)
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 100, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Arrive(Arrival{
			Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 1, ViewProb: 0.9,
			Interests: []float64{0.9, 0.1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := b.Stats()
	if s.Campaigns != 1 || s.Arrivals != 3 {
		t.Errorf("stats %+v", s)
	}
	if s.OffersPushed == 0 || s.UtilityServed <= 0 || s.BudgetSpent <= 0 {
		t.Errorf("counters not accumulating: %+v", s)
	}
	if s.GammaMin <= 0 || s.GammaMax < s.GammaMin {
		t.Errorf("gamma bounds %+v", s)
	}
	if s.G <= math.E {
		t.Errorf("derived g = %g must exceed e", s.G)
	}
}

func TestThresholdTightensAsBudgetDrains(t *testing.T) {
	b := newTestBroker(t)
	// Single campaign with a modest budget; the same mediocre customer
	// arrives repeatedly. Early arrivals are admitted while the threshold is
	// low; after the good customer shows the broker a higher γ_max, the
	// tightened threshold blocks the mediocre ones before the budget is
	// fully exhausted.
	id, _ := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.3, 12, []float64{1, 0})
	mediocre := Arrival{Loc: geo.Point{X: 0.5, Y: 0.75}, Capacity: 1, ViewProb: 0.2,
		Interests: []float64{0.6, 0.4}}
	good := Arrival{Loc: geo.Point{X: 0.5, Y: 0.501}, Capacity: 1, ViewProb: 1,
		Interests: []float64{0.9, 0.1}}
	if _, err := b.Arrive(good); err != nil { // establishes a high γ_max
		t.Fatal(err)
	}
	served := 0
	for i := 0; i < 40; i++ {
		offers, err := b.Arrive(mediocre)
		if err != nil {
			t.Fatal(err)
		}
		served += len(offers)
	}
	c, _ := b.CampaignState(id)
	if c.Spent >= c.Budget {
		t.Errorf("adaptive threshold never blocked: spent %g of %g on %d mediocre offers",
			c.Spent, c.Budget, served)
	}
}

func TestPacingLimitsEarlySpend(t *testing.T) {
	paced, err := New(Config{AdTypes: workload.DefaultAdTypes(), Pacing: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := paced.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.3, 24, []float64{1, 0})
	arrival := func(hour float64) Arrival {
		return Arrival{Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 1, ViewProb: 0.9,
			Interests: []float64{0.9, 0.1}, Hour: hour}
	}
	// A morning flood at hour 6: uniform pacing allows at most 24·(6/24) = 6
	// of budget.
	for i := 0; i < 50; i++ {
		if _, err := paced.Arrive(arrival(6)); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := paced.CampaignState(id)
	if c.Spent > 6+1e-9 {
		t.Fatalf("pacing breached: spent %g of the hour-6 allowance 6", c.Spent)
	}
	// Later in the day the allowance opens up.
	for i := 0; i < 50; i++ {
		if _, err := paced.Arrive(arrival(23)); err != nil {
			t.Fatal(err)
		}
	}
	c, _ = paced.CampaignState(id)
	if c.Spent <= 6 {
		t.Errorf("evening traffic should be servable, spent stuck at %g", c.Spent)
	}
	checkInvariants(t, paced)
}

func TestPacingValidation(t *testing.T) {
	if _, err := New(Config{AdTypes: workload.DefaultAdTypes(), Pacing: -1}); err == nil {
		t.Error("negative pacing must be rejected")
	}
	if _, err := New(Config{AdTypes: workload.DefaultAdTypes(), Pacing: math.NaN()}); err == nil {
		t.Error("NaN pacing must be rejected")
	}
}

func TestPacingDisabledByDefault(t *testing.T) {
	b := newTestBroker(t)
	id, _ := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.3, 4, []float64{1, 0})
	// Hour 0 with pacing would forbid any spend; without pacing it's fine.
	offers, err := b.Arrive(Arrival{Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 1,
		ViewProb: 0.9, Interests: []float64{0.9, 0.1}, Hour: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 {
		t.Errorf("unpaced broker refused an hour-0 arrival: %v", offers)
	}
	_ = id
}

func TestConcurrentMixedOperationsStress(t *testing.T) {
	// Arrivals, top-ups, pauses and reads race against each other; the
	// broker's contract must hold at every cut CheckInvariants takes.
	// Run under -race in CI (go test -race ./...).
	b := newTestBroker(t)
	const campaigns = 8
	for i := 0; i < campaigns; i++ {
		if _, err := b.RegisterCampaign(geo.Point{X: 0.1 * float64(i+1), Y: 0.5}, 0.3, 20, []float64{1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	stop := invariantsDuring(t, b)
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch (g + i) % 4 {
				case 0:
					if _, err := b.Arrive(Arrival{
						Loc:      geo.Point{X: 0.1 * float64(i%campaigns+1), Y: 0.5},
						Capacity: 2, ViewProb: 0.7, Interests: []float64{0.8, 0.2},
					}); err != nil {
						errCh <- err
						return
					}
				case 1:
					if err := b.TopUp(int32(i%campaigns), 0.5); err != nil {
						errCh <- err
						return
					}
				case 2:
					if err := b.SetPaused(int32(i%campaigns), i%2 == 0); err != nil {
						errCh <- err
						return
					}
				default:
					b.Stats()
					b.Campaigns()
				}
			}
		}(g)
	}
	wg.Wait()
	stop()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestAbsurdRadiusKeepsEveryStripeReachable: a campaign's radius is any
// finite float, and the largest one widens every arrival's stripe interval to
// [y − r, y + r]. That window once went through a float→int conversion
// outside int's range, came back as stripe 0 alone, and every campaign in
// another stripe stopped being served.
func TestAbsurdRadiusKeepsEveryStripeReachable(t *testing.T) {
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.9}, 0.3, 50, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	a := Arrival{Loc: geo.Point{X: 0.5, Y: 0.85}, Capacity: 1, ViewProb: 0.5, Interests: []float64{1, 0}, Hour: 12}
	if offers, err := b.Arrive(a); err != nil || len(offers) != 1 {
		t.Fatalf("before: %v, %v", offers, err)
	}
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.05}, 1e300, 0, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	if offers, err := b.Arrive(a); err != nil || len(offers) != 1 || offers[0].Campaign != 0 {
		t.Fatalf("after a radius-1e300 registration in stripe 0: %v, %v; want campaign 0 still served", offers, err)
	}
}
