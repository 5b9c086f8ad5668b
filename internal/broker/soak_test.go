package broker

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"muaa/internal/geo"
	"muaa/internal/workload"
)

// applyOp maps one workload op onto broker calls, returning the offers an
// arrival produced (nil otherwise).
func applyOp(tb testing.TB, b *Broker, op workload.BrokerOp) []Offer {
	tb.Helper()
	switch op.Kind {
	case workload.OpArrival:
		offers, err := b.Arrive(Arrival{
			Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb,
			Interests: op.Interests, Hour: op.Hour,
		})
		if err != nil {
			tb.Error(err)
		}
		return offers
	case workload.OpTopUp:
		if err := b.TopUp(op.Campaign, op.Amount); err != nil {
			tb.Error(err)
		}
	case workload.OpPause:
		if err := b.SetPaused(op.Campaign, op.Paused); err != nil {
			tb.Error(err)
		}
	default:
		b.Stats()
		b.Campaigns()
	}
	return nil
}

// TestConcurrentSoak hammers one broker with mixed traffic from many
// goroutines and then audits the money: no campaign overspent, every arrival
// respected its capacity, and the global spend/offer/utility counters agree
// exactly with what the goroutines observed. Run under -race in CI; the
// sharded hot path must stay both race-clean and accounting-exact.
func TestConcurrentSoak(t *testing.T) {
	workers := 4 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	opsPerWorker := 400
	if testing.Short() {
		workers, opsPerWorker = 4, 100
	}
	const campaigns = 48
	specs, ops, err := workload.BrokerLoad(
		workload.DefaultBrokerLoadConfig(campaigns, workers*opsPerWorker, 1234))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range specs {
		if _, err := b.RegisterCampaign(c.Loc, c.Radius, c.Budget, c.Tags); err != nil {
			t.Fatal(err)
		}
	}

	// Per-worker observations, merged after the fact: offer counts, the
	// exact cost and utility sums of the offers each worker was handed, and
	// the arrival count.
	type tally struct {
		arrivals int64
		offers   int64
		cost     float64
		utility  float64
	}
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Interleave workers across the stream so shards see overlapping
			// traffic rather than disjoint slices.
			for i := w; i < len(ops); i += workers {
				op := ops[i]
				offers := applyOp(t, b, op)
				if op.Kind == workload.OpArrival {
					tallies[w].arrivals++
					if len(offers) > op.Capacity {
						t.Errorf("arrival with capacity %d got %d offers", op.Capacity, len(offers))
					}
					for _, o := range offers {
						tallies[w].offers++
						tallies[w].cost += o.Cost
						tallies[w].utility += o.Utility
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var want tally
	for _, tl := range tallies {
		want.arrivals += tl.arrivals
		want.offers += tl.offers
		want.cost += tl.cost
		want.utility += tl.utility
	}
	st := b.Stats()
	if st.Arrivals != want.arrivals {
		t.Errorf("arrival counter %d, workers made %d", st.Arrivals, want.arrivals)
	}
	if st.OffersPushed != want.offers {
		t.Errorf("offer counter %d, workers received %d", st.OffersPushed, want.offers)
	}
	// Ad costs are small binary-exact values, so sums should agree to
	// rounding noise even though addition orders differ across goroutines.
	if math.Abs(st.BudgetSpent-want.cost) > 1e-6 {
		t.Errorf("global spend %g, sum of offer costs %g", st.BudgetSpent, want.cost)
	}
	if math.Abs(st.UtilityServed-want.utility) > 1e-6 {
		t.Errorf("global utility %g, sum of offer utilities %g", st.UtilityServed, want.utility)
	}

	var campaignSpend float64
	for _, c := range b.Campaigns() {
		campaignSpend += c.Spent
		if c.Spent > c.Budget+1e-9 {
			t.Errorf("campaign %d overspent: %g > %g", c.ID, c.Spent, c.Budget)
		}
		if c.Spent < 0 {
			t.Errorf("campaign %d negative spend %g", c.ID, c.Spent)
		}
	}
	if math.Abs(campaignSpend-st.BudgetSpent) > 1e-6 {
		t.Errorf("per-campaign spend %g disagrees with global counter %g", campaignSpend, st.BudgetSpent)
	}
	if st.GammaMax > 0 && (st.GammaMin <= 0 || math.IsInf(st.GammaMin, 1) || st.GammaMax < st.GammaMin) {
		t.Errorf("gamma bounds corrupted: %+v", st)
	}
}

// TestConcurrentRegistrationDuringTraffic races registrations against
// arrivals and directory readers: every arrival must either see a campaign
// fully (grid + state) or not at all, every Campaigns() view must be a dense,
// never-shrinking prefix — the directory grows in place under its readers, so
// a header must never expose a slot before it is written — and the directory
// must end dense and ordered. The funnel is on, because its rows live on the
// directory entries: a campaign registered while arrivals run must have a
// readable row at once, a top reader racing the folds must never see a count
// fall, and at the end the rows must sum to the fleet's gathered count. Every
// seventh mid-traffic registration is in a second taxonomy (three tags against
// the stream's eight): its slab run is published while arrivals score against
// the slab, and it must show up as tag_mismatch rows — every gather of it,
// never a panic or a score. Run under -race in CI.
func TestConcurrentRegistrationDuringTraffic(t *testing.T) {
	const (
		registrations = 1500 // many in-place appends between regrowths
		midTraffic    = 500  // ids from here on register after arrivals began
	)
	otherTaxonomy := func(i int) bool { return i >= midTraffic && i%7 == 0 }
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Shards: 8,
		Funnel: FunnelConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultBrokerLoadConfig(0, 600, 77)
	cfg.TopUpFrac, cfg.PauseFrac = 0, 0 // campaign IDs race with registration
	_, ops, err := workload.BrokerLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(4)
	registered := make(chan struct{})
	warm := make(chan struct{}) // closed once arrivals are flowing
	go func() {
		defer wg.Done()
		defer close(registered)
		for i := 0; i < registrations; i++ {
			if i == midTraffic {
				<-warm
			}
			loc := geo.Point{X: 0.1 + 0.013*float64(i%60), Y: 0.1 + 0.017*float64(i%50)}
			tags := []float64{1, 0, 0.5, 0.2, 0.1, 0.9, 0.4, 0.3}
			if otherTaxonomy(i) {
				tags = tags[:3]
			}
			id, err := b.RegisterCampaign(loc, 0.02+0.001*float64(i%30), 10, tags)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := b.CampaignFunnel(id); err != nil {
				t.Errorf("campaign %d has no funnel row right after registration: %v", id, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		// Passes repeat until the last registration, then one more, so every
		// campaign is also gathered by a full pass.
		for pass, last := 0, false; ; pass++ {
			for i, op := range ops {
				applyOp(t, b, op)
				if pass == 0 && i == 100 {
					close(warm)
				}
			}
			if last {
				return
			}
			select {
			case <-registered:
				last = true
			default:
			}
		}
	}()
	go func() {
		defer wg.Done()
		seen := make(map[int32]uint64)
		for done := false; !done; {
			select {
			case <-registered:
				done = true
			default:
			}
			for _, fc := range b.funnel.walk(16).top {
				if fc.Gathered < seen[fc.Campaign] {
					t.Errorf("campaign %d: gathered fell from %d to %d between top reads",
						fc.Campaign, seen[fc.Campaign], fc.Gathered)
					return
				}
				seen[fc.Campaign] = fc.Gathered
				conserved(t, fc)
			}
		}
	}()
	go func() {
		defer wg.Done()
		seen := 0
		for done := false; !done; {
			select {
			case <-registered:
				done = true // one more look, at the final directory
			default:
			}
			all := b.Campaigns()
			if len(all) < seen {
				t.Errorf("directory shrank from %d to %d campaigns", seen, len(all))
				return
			}
			seen = len(all)
			for i, c := range all {
				if c.ID != int32(i) || c.Budget != 10 {
					t.Errorf("directory view of %d not dense at %d: %+v", len(all), i, c)
					return
				}
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	all := b.Campaigns()
	if len(all) != registrations {
		t.Fatalf("directory holds %d campaigns, want %d", len(all), registrations)
	}
	var rows, lateRows, mismatched uint64
	for i, c := range all {
		if c.ID != int32(i) {
			t.Fatalf("directory not dense at %d: %+v", i, c)
		}
		fc, err := b.CampaignFunnel(c.ID)
		if err != nil {
			t.Fatal(err)
		}
		conserved(t, fc)
		rows += fc.Gathered
		if i >= midTraffic {
			lateRows += fc.Gathered
		}
		want := uint64(0)
		if otherTaxonomy(i) {
			want = fc.Gathered
		}
		if fc.TagMismatch != want {
			t.Errorf("campaign %d (%d tags): %d of %d gathers filed as tag_mismatch, want %d",
				i, len(c.Tags), fc.TagMismatch, fc.Gathered, want)
		}
		mismatched += fc.TagMismatch
	}
	if mismatched == 0 {
		t.Error("no campaign of the second taxonomy was ever gathered")
	}
	if fleet := b.funnel.gathered.Load(); rows != fleet {
		t.Errorf("per-campaign gathered sum %d != fleet gathered %d", rows, fleet)
	}
	if lateRows == 0 {
		t.Error("no campaign registered mid-traffic was ever gathered")
	}
}

// TestConcurrentBatchSoak mixes ArriveBatch windows with serial arrivals and
// money mutations from many goroutines, then audits the accounting the same
// way TestConcurrentSoak does. Run under -race in CI: the batch path's
// covering-interval locking and shared arena must be race-clean against the
// serial path and against itself.
func TestConcurrentBatchSoak(t *testing.T) {
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 6 {
		workers = 6
	}
	opsPerWorker := 400
	if testing.Short() {
		workers, opsPerWorker = 4, 100
	}
	const campaigns = 48
	specs, ops, err := workload.BrokerLoad(
		workload.DefaultBrokerLoadConfig(campaigns, workers*opsPerWorker, 4321))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range specs {
		if _, err := b.RegisterCampaign(c.Loc, c.Radius, c.Budget, c.Tags); err != nil {
			t.Fatal(err)
		}
	}

	type tally struct {
		arrivals int64
		offers   int64
		cost     float64
		utility  float64
	}
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tl := &tallies[w]
			count := func(capacity int, offers []Offer) {
				tl.arrivals++
				if len(offers) > capacity {
					t.Errorf("arrival with capacity %d got %d offers", capacity, len(offers))
				}
				for _, o := range offers {
					tl.offers++
					tl.cost += o.Cost
					tl.utility += o.Utility
				}
			}
			// Even workers batch their arrivals in windows; odd workers stay
			// serial, so both entry points contend for the same stripes.
			var window []Arrival
			var caps []int
			flush := func() {
				if len(window) == 0 {
					return
				}
				for i, res := range b.ArriveBatch(window) {
					if res.Err != nil {
						t.Error(res.Err)
						continue
					}
					count(caps[i], res.Offers)
				}
				window, caps = window[:0], caps[:0]
			}
			for i := w; i < len(ops); i += workers {
				op := ops[i]
				if op.Kind == workload.OpArrival && w%2 == 0 {
					window = append(window, Arrival{
						Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb,
						Interests: op.Interests, Hour: op.Hour,
					})
					caps = append(caps, op.Capacity)
					if len(window) >= 8 {
						flush()
					}
					continue
				}
				offers := applyOp(t, b, op)
				if op.Kind == workload.OpArrival {
					count(op.Capacity, offers)
				}
			}
			flush()
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var want tally
	for _, tl := range tallies {
		want.arrivals += tl.arrivals
		want.offers += tl.offers
		want.cost += tl.cost
		want.utility += tl.utility
	}
	st := b.Stats()
	if st.Arrivals != want.arrivals {
		t.Errorf("arrival counter %d, workers made %d", st.Arrivals, want.arrivals)
	}
	if st.OffersPushed != want.offers {
		t.Errorf("offer counter %d, workers received %d", st.OffersPushed, want.offers)
	}
	if math.Abs(st.BudgetSpent-want.cost) > 1e-6 {
		t.Errorf("global spend %g, sum of offer costs %g", st.BudgetSpent, want.cost)
	}
	if math.Abs(st.UtilityServed-want.utility) > 1e-6 {
		t.Errorf("global utility %g, sum of offer utilities %g", st.UtilityServed, want.utility)
	}
	var campaignSpend float64
	for _, c := range b.Campaigns() {
		campaignSpend += c.Spent
		if c.Spent > c.Budget+1e-9 {
			t.Errorf("campaign %d overspent: %g > %g", c.ID, c.Spent, c.Budget)
		}
	}
	if math.Abs(campaignSpend-st.BudgetSpent) > 1e-6 {
		t.Errorf("per-campaign spend %g disagrees with global counter %g", campaignSpend, st.BudgetSpent)
	}
}

// TestGammaMergeLosesNothing pins the γ-state seed/merge rule under
// concurrency. Each goroutine serves its own arrivals inside its own stripe
// (disjoint lock sets, so they truly run in parallel), every arrival walks a
// private γ-state and merges it back with Min/Max. Budgets are effectively
// unlimited, so the set of efficiencies observed does not depend on who
// spent what when: the final bounds must equal, bit for bit, those of a
// serial replay of the same arrivals — no merge may lose an observation.
// Meanwhile a reader checks the ordering gammaSeed/gammaMerge document: a
// snapshot that sees γ_max > 0 never holds γ_min = +Inf.
func TestGammaMergeLosesNothing(t *testing.T) {
	const stripes, perStripe, arrivalsEach = 8, 6, 250
	// Everything in lane k sits within 0.01 of stripe k's midline and radii
	// stay ≤ 0.04, so an arrival's lock window (its Y ± the fleet's largest
	// radius) never leaves its own 0.125-high stripe — checked below.
	near := func(rng *rand.Rand, mid float64) float64 { return mid + (rng.Float64()-0.5)*0.02 }
	vec := func(rng *rand.Rand) []float64 { return []float64{rng.Float64(), rng.Float64(), rng.Float64()} }
	build := func() (*Broker, [][]Arrival) {
		b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Shards: stripes})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		lanes := make([][]Arrival, stripes)
		for k := range lanes {
			mid := (float64(k) + 0.5) / stripes
			for i := 0; i < perStripe; i++ {
				loc := geo.Point{X: near(rng, 0.5), Y: near(rng, mid)}
				if _, err := b.RegisterCampaign(loc, 0.03+0.01*rng.Float64(), 1e12, vec(rng)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < arrivalsEach; i++ {
				lanes[k] = append(lanes[k], Arrival{
					Loc:       geo.Point{X: near(rng, 0.5), Y: near(rng, mid)},
					Capacity:  1 + i%4,
					ViewProb:  0.1 + 0.8*rng.Float64(),
					Interests: vec(rng),
					Hour:      24 * rng.Float64(),
				})
			}
		}
		maxR := b.maxRadius.Load()
		for k, lane := range lanes {
			for _, a := range lane {
				if s0, s1 := b.stripes.Range(a.Loc.Y-maxR, a.Loc.Y+maxR); s0 != k || s1 != k {
					t.Fatalf("lane %d arrival locks stripes %d..%d; lanes must be disjoint", k, s0, s1)
				}
			}
		}
		return b, lanes
	}

	serial, lanes := build()
	for _, lane := range lanes {
		for _, a := range lane {
			if _, err := serial.Arrive(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := serial.Stats()
	if want.GammaMax == 0 || want.GammaMin >= want.GammaMax {
		t.Fatalf("serial replay observed nothing useful: %+v", want)
	}

	conc, lanes := build()
	done := make(chan struct{})
	var readers, workers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			if gs := conc.gammaSeed(); gs.max > 0 && math.IsInf(gs.min, 1) {
				t.Errorf("snapshot saw γ_max = %v with γ_min still +Inf", gs.max)
				return
			}
			select {
			case <-done:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	for k := range lanes {
		workers.Add(1)
		go func(lane []Arrival) {
			defer workers.Done()
			for _, a := range lane {
				if _, err := conc.Arrive(a); err != nil {
					t.Error(err)
					return
				}
			}
		}(lanes[k])
	}
	workers.Wait()
	close(done)
	readers.Wait()
	got := conc.Stats()
	if got.GammaMin != want.GammaMin || got.GammaMax != want.GammaMax {
		t.Fatalf("concurrent γ bounds [%v, %v], serial replay [%v, %v]: a merge lost an observation",
			got.GammaMin, got.GammaMax, want.GammaMin, want.GammaMax)
	}
	if got.Arrivals != want.Arrivals {
		t.Fatalf("arrivals %d, want %d", got.Arrivals, want.Arrivals)
	}
}
