package broker

import (
	"math"
	"slices"
	"testing"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/obs"
	"muaa/internal/workload"
)

// skipCounts sums, over every stripe arena, the candidates the walk took and
// those of them its skip disposed of without the ad-type loop.
func skipCounts(b *Broker) (walked, skipped int) {
	for i := range b.shards {
		walked += b.shards[i].arena.walked
		skipped += b.shards[i].arena.skipped
	}
	return walked, skipped
}

// skipPair is two brokers built and fed alike, except that off walks every
// candidate through the ad-type loop: the reference the walk's skip must
// match bit for bit.
type skipPair struct {
	tb      testing.TB
	on, off *Broker
}

func newSkipPair(tb testing.TB, cfg Config) *skipPair {
	tb.Helper()
	p := &skipPair{tb: tb}
	for _, b := range []**Broker{&p.on, &p.off} {
		c := cfg
		c.Metrics = obs.NewRegistry()
		c.Funnel = FunnelConfig{Enabled: true}
		var err error
		if *b, err = New(c); err != nil {
			tb.Fatal(err)
		}
	}
	p.off.exactWalk = true
	return p
}

// register registers every campaign on both brokers.
func (p *skipPair) register(specs ...CampaignSpec) {
	p.tb.Helper()
	for _, spec := range specs {
		for _, b := range []*Broker{p.on, p.off} {
			if _, err := b.RegisterCampaignSpec(spec); err != nil {
				p.tb.Fatal(err)
			}
		}
	}
}

// feed serves arrivals on both brokers, in windows of batch through
// ArriveBatch (batch > 1) or one by one, and after every step compares the
// offers, γ's bits and the scan outcome counters — which, with the offers,
// pin the step's whole disposition tally.
func (p *skipPair) feed(arrivals []Arrival, batch int) {
	p.tb.Helper()
	serve := func(b *Broker, w []Arrival) [][]Offer {
		var out [][]Offer
		if batch > 1 {
			for _, r := range b.ArriveBatch(w) {
				if r.Err != nil {
					p.tb.Fatal(r.Err)
				}
				out = append(out, slices.Clone(r.Offers))
			}
			return out
		}
		offers, err := b.Arrive(w[0])
		if err != nil {
			p.tb.Fatal(err)
		}
		return append(out, offers)
	}
	step := max(batch, 1)
	for at := 0; at < len(arrivals); at += step {
		w := arrivals[at:min(at+step, len(arrivals))]
		on, off := serve(p.on, w), serve(p.off, w)
		for i := range w {
			if !slices.Equal(on[i], off[i]) {
				p.tb.Fatalf("arrival %d: skip on offers %+v, off %+v", at+i, on[i], off[i])
			}
		}
		if p.on.gammaMin.bits.Load() != p.off.gammaMin.bits.Load() || p.on.gammaMax.bits.Load() != p.off.gammaMax.bits.Load() {
			p.tb.Fatalf("arrival %d: γ [%v, %v] with the skip, [%v, %v] without", at,
				p.on.gammaMin.Load(), p.on.gammaMax.Load(), p.off.gammaMin.Load(), p.off.gammaMax.Load())
		}
		for d, c := range p.on.metrics.scanOutcomes {
			if got, want := c.Value(), p.off.metrics.scanOutcomes[d].Value(); got != want {
				p.tb.Fatalf("arrival %d: %s count %d with the skip, %d without", at, scanOutcomeNames[d], got, want)
			}
		}
	}
}

// finish compares every campaign's funnel row and the broker totals, and
// returns the share of walked candidates the skip took.
func (p *skipPair) finish() float64 {
	p.tb.Helper()
	fon, foff := p.on.dir.Load(), p.off.dir.Load()
	for id := range fon.campaigns {
		if got, want := *fon.funnel(int32(id)), *foff.funnel(int32(id)); got != want {
			p.tb.Fatalf("campaign %d: funnel row %v with the skip, %v without", id, got, want)
		}
	}
	if got, want := p.on.Stats(), p.off.Stats(); got != want {
		p.tb.Fatalf("stats with the skip %+v, without %+v", got, want)
	}
	if _, skipped := skipCounts(p.off); skipped != 0 {
		p.tb.Fatalf("the exact walk skipped %d candidates", skipped)
	}
	walked, skipped := skipCounts(p.on)
	if walked == 0 {
		p.tb.Fatal("no candidate reached the walk")
	}
	return float64(skipped) / float64(walked)
}

// skipMarket is a billed pure-arrival market of n campaigns at twice the
// default radii with budgets that never exhaust — denseMarket's shape at a
// test's size — after edit has had its say over the fleet.
func skipMarket(tb testing.TB, n, ops int, edit func(c *workload.BrokerCampaign)) ([]CampaignSpec, []Arrival) {
	tb.Helper()
	cfg := workload.BilledBrokerLoadConfig(n, ops, 7)
	cfg.ArrivalFrac, cfg.ConvertFrac, cfg.TopUpFrac, cfg.PauseFrac = 1, 0, 0, 0
	cfg.Radius.Lo, cfg.Radius.Hi = 2*cfg.Radius.Lo, 2*cfg.Radius.Hi
	cfg.Budget.Lo, cfg.Budget.Hi = 1e4*cfg.Budget.Lo, 1e4*cfg.Budget.Hi
	fleet, ops_, err := workload.BrokerLoad(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	specs := make([]CampaignSpec, len(fleet))
	for i := range fleet {
		if edit != nil {
			edit(&fleet[i])
		}
		c := fleet[i]
		specs[i] = CampaignSpec{Loc: c.Loc, Radius: c.Radius, Budget: c.Budget, Tags: c.Tags, Billing: c.Billing}
	}
	arrivals := make([]Arrival, len(ops_))
	for i, op := range ops_ {
		arrivals[i] = arrivalOf(op)
	}
	return specs, arrivals
}

// TestWalkSkipMatchesExactWalk runs markets with the walk's skip on and off
// and holds every offer, price, γ bit, tally and funnel row equal. Where the
// skip may fire, it must; where its conditions cannot hold, it must not.
func TestWalkSkipMatchesExactWalk(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		p := newSkipPair(t, Config{AdTypes: workload.DefaultAdTypes()})
		denseMarket(t, p.off, false)
		arrivals := denseMarket(t, p.on, false)
		p.feed(arrivals[:1024], 64)
		if share := p.finish(); share < 0.5 {
			t.Errorf("the skip took %.3f of walked candidates on the dense market, want ≥ 0.5", share)
		}
	})

	// Guaranteed campaigns behind their floor walk under a quartered φ: the
	// skip reads φ after the relief, and still fires.
	t.Run("guaranteed relief", func(t *testing.T) {
		p := newSkipPair(t, Config{AdTypes: workload.DefaultAdTypes()})
		specs, arrivals := skipMarket(t, 2048, 1024, nil)
		for i := range specs {
			if i%2 == 0 {
				specs[i].Guaranteed, specs[i].Floor = true, 0.5
			}
		}
		p.register(specs...)
		for i := range arrivals {
			arrivals[i].Hour = 12
		}
		rep, err := p.on.Explain(arrivals[0])
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(rep.Candidates, func(c ExplainCandidate) bool { return c.Relief }) {
			t.Fatal("no candidate of the first arrival walks under relief")
		}
		p.feed(arrivals, 1)
		if share := p.finish(); share == 0 {
			t.Error("the skip never fired under guaranteed relief")
		}
	})

	for _, tc := range []struct {
		name string
		cfg  Config
		edit func(c *workload.BrokerCampaign)
		cap  int // arrival capacity, when set
	}{
		// No (capacity+1)-th rank exists, so no candidate is a sure loser.
		{name: "capacity above candidates", cap: 1 << 20},
		// Budgets below the dearest ad type: some item is always unaffordable.
		{name: "mixed affordability", edit: func(c *workload.BrokerCampaign) {
			c.Budget = 1.2 + math.Mod(c.Budget, 1.7)
		}},
		// Reserves between the cheapest and the dearest bid price some items
		// out, statically.
		{name: "reserves straddle the bids", edit: func(c *workload.BrokerCampaign) {
			c.Billing = model.Billing{Model: model.BillingCPM, ReserveECPM: 1750}
		}},
		// A pacing allowance below the dearest ad type at every hour.
		{name: "pacing cap", cfg: Config{Pacing: 2.5 / 5e5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.AdTypes = workload.DefaultAdTypes()
			p := newSkipPair(t, cfg)
			specs, arrivals := skipMarket(t, 2048, 512, tc.edit)
			p.register(specs...)
			if tc.cap != 0 {
				for i := range arrivals {
					arrivals[i].Capacity = tc.cap
				}
			}
			p.feed(arrivals, 16)
			if share := p.finish(); share != 0 {
				t.Errorf("the skip took %.3f of walked candidates, want none", share)
			}
		})
	}

	// Every candidate's efficiencies lie above all γ has seen: in one cell,
	// so walked in registration order, the campaigns' event rates fall and
	// their efficiencies climb, and each arrival's view probability outruns
	// the last arrival's whole range. γ_max moves at every candidate.
	t.Run("gamma still moving", func(t *testing.T) {
		p := newSkipPair(t, Config{AdTypes: workload.DefaultAdTypes()})
		tags := []float64{0.9, 0.1, 0.4}
		for i := range 20 {
			p.register(CampaignSpec{Loc: geo.Point{X: 0.5, Y: 0.5}, Radius: 0.3, Budget: 1e6, Tags: tags,
				Billing: model.Billing{Model: model.BillingCPC, EventRate: 0.5 * math.Pow(0.9, float64(i))}})
		}
		var arrivals []Arrival
		for i := range 5 {
			arrivals = append(arrivals, Arrival{Loc: geo.Point{X: 0.5, Y: 0.51}, Capacity: 1,
				ViewProb: 1e-6 * math.Pow(20, float64(i)), Interests: tags, Hour: 12})
		}
		p.feed(arrivals, 1)
		if share := p.finish(); share != 0 {
			t.Errorf("the skip took %.3f of walked candidates while γ moved, want none", share)
		}
	})
}

// decideIn runs the kernel over the given candidates, walked in the given
// order, from the given γ-state, on a private recording arena.
func decideIn(b *Broker, a Arrival, ids []int32, g gammaState, exact bool) (*scanArena, scanTally) {
	ar := &scanArena{rec: true}
	fl := b.gather(ar, a.Loc, 0, len(b.shards)-1)
	ar.ids, ar.gamma = slices.Clone(ids), g
	b.exactWalk = exact
	return ar, b.decide(ar, &a, fl, false)
}

// TestWalkSkipHandsOffWithinSlack puts φ at, below and above the top
// efficiency of a sure loser: within the slack the walk takes the exact loop,
// outside it the skip files the candidate displaced or below threshold — and
// either way the decision equals the exact walk's.
func TestWalkSkipHandsOffWithinSlack(t *testing.T) {
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), G: 1e4})
	if err != nil {
		t.Fatal(err)
	}
	// Three fixed-billed campaigns with one tag vector, 0.01, 0.012 and 0.05
	// from the arrival: the third's base is a fifth of the first's. Capacity 1
	// ranks two, so the first two set the cut the third falls below.
	center, tags := geo.Point{X: 0.5, Y: 0.5}, []float64{0.9, 0.1, 0.4}
	var ids []int32
	for _, dy := range []float64{0.01, 0.012, 0.05} {
		id, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5 + dy}, 0.1, 1000, tags)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// The third is half spent: δ = 0.5 and φ = γ_min/e · √1e4.
	b.dir.Load().row(ids[2]).spent.Store(500)
	a := Arrival{Loc: center, Capacity: 1, ViewProb: 0.5, Interests: tags, Hour: 12}
	decide := func(gmin float64, exact bool) (*scanArena, scanTally) {
		return decideIn(b, a, ids, gammaState{min: gmin, max: 1e9, cfgG: b.cfg.G}, exact)
	}
	probe, _ := decide(1e-12, true)
	if len(probe.cand) != 3 {
		t.Fatalf("%d candidates survive the filters, want 3", len(probe.cand))
	}
	top := probe.base[2] * b.dir.Load().walkAt(b.dir.Load().rowOf[ids[2]]).qMax
	for _, tc := range []struct {
		name    string
		phi     float64 // the third's φ as a multiple of its top efficiency
		skipped int
		disp    funnelDisposition // the third's, or numDispositions for either
	}{
		{"displaced", 0.5, 1, dispDisplaced},
		{"within the slack", 1, 0, numDispositions}, // rounding decides
		{"below threshold", 2, 1, dispBelowThreshold},
	} {
		gmin := tc.phi * top * math.E / 100
		on, ton := decide(gmin, false)
		off, toff := decide(gmin, true)
		if phi := off.gamma.min / math.E * 100; tc.phi == 1 && math.Abs(phi/top-1) > skipSlack {
			t.Fatalf("%s: φ/top = %v, outside the slack", tc.name, phi/top)
		}
		if on.skipped != tc.skipped {
			t.Errorf("%s: skipped %d, want %d", tc.name, on.skipped, tc.skipped)
		}
		if ton != toff || !slices.Equal(on.cands, off.cands) || on.gamma.min != off.gamma.min || on.gamma.max != off.gamma.max {
			t.Errorf("%s: tally %+v, offers %+v with the skip; %+v, %+v without", tc.name, ton, on.cands, toff, off.cands)
		}
		sortEvents := func(ev []funnelEvent) []funnelEvent {
			ev = slices.Clone(ev)
			slices.SortFunc(ev, func(x, y funnelEvent) int { return int(x.at - y.at) })
			return ev
		}
		if got, want := sortEvents(on.fev), sortEvents(off.fev); !slices.Equal(got, want) || tc.disp != numDispositions && want[2].disp != tc.disp {
			t.Errorf("%s: funnel events %v with the skip, %v without; want the third %s", tc.name, got, want, dispositionNames[tc.disp])
		}
	}
}

// TestWalkSkipHoldsGammaMaxUnderInfiniteRanks walks two campaigns whose
// efficiency overflows to +Inf — admitted, ranked, never observed — before a
// fixed-billed one above γ_max. The cut is +Inf, so only the skip's γ_max
// bound sends the third through the loop that raises γ_max.
func TestWalkSkipHoldsGammaMaxUnderInfiniteRanks(t *testing.T) {
	b, err := New(Config{AdTypes: []model.AdType{{Name: "one", Cost: 1, Effect: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	tags := []float64{0.9, 0.1, 0.4}
	var ids []int32
	for _, bi := range []model.Billing{
		{Model: model.BillingCPC, EventRate: 1e-320}, // expected cost 1e-320: efficiency +Inf
		{Model: model.BillingCPC, EventRate: 1e-320},
		{},
	} {
		id, err := b.RegisterCampaignSpec(CampaignSpec{Loc: geo.Point{X: 0.5, Y: 0.52}, Radius: 0.1, Budget: 1000, Tags: tags, Billing: bi})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	a := Arrival{Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 1, ViewProb: 0.5, Interests: tags, Hour: 12}
	probe, _ := decideIn(b, a, ids, gammaState{min: 1e-12, max: 1e-12}, true)
	if len(probe.reps) != 3 || !math.IsInf(probe.reps[1].rank, 1) {
		t.Fatalf("reps %+v, want three with the top two ranked +Inf", probe.reps)
	}
	eff := probe.base[2] // one ad type of effect 1 at cost 1
	g := gammaState{min: eff / 10, max: eff / 2}
	on, ton := decideIn(b, a, ids, g, false)
	off, toff := decideIn(b, a, ids, g, true)
	if on.skipped != 0 || off.gamma.max != eff {
		t.Errorf("skipped %d, exact γ_max %v: want 0 skipped and γ_max raised to %v", on.skipped, off.gamma.max, eff)
	}
	if ton != toff || on.gamma.min != off.gamma.min || on.gamma.max != off.gamma.max {
		t.Errorf("tally %+v, γ [%v, %v] with the skip; %+v, [%v, %v] without", ton, on.gamma.min, on.gamma.max, toff, off.gamma.min, off.gamma.max)
	}
}
