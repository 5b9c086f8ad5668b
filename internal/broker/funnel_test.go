package broker

// Decision-funnel tests: disposition attribution per gate, the conservation
// invariant (sum of dispositions == gathered, per campaign and fleet-wide —
// the -race soak CI runs by name), exactness for every campaign of a fleet
// of any size, the bounded metrics collector, golden-replay neutrality with
// the funnel enabled, and the zero-alloc bar on the instrumented hot path.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/obs"
	"muaa/internal/pacing"
	"muaa/internal/stats"
	"muaa/internal/workload"
)

// funnelBroker builds a broker with funnel attribution on.
func funnelBroker(t *testing.T, cfg Config) *Broker {
	t.Helper()
	cfg.Funnel.Enabled = true
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// conserved asserts one campaign's funnel row sums to its gathered count.
func conserved(t *testing.T, fc FunnelCounts) {
	t.Helper()
	sum := fc.Offered + fc.Paused + fc.Exhausted + fc.TagMismatch + fc.LowScore +
		fc.Unaffordable + fc.BelowThreshold + fc.BelowReserve + fc.Displaced
	if sum != fc.Gathered {
		t.Errorf("campaign %d: dispositions sum %d != gathered %d (%+v)",
			fc.Campaign, sum, fc.Gathered, fc)
	}
}

// fleetColumns sums every campaign's funnel row column by column and, at
// quiescence, checks the sums against the fleet families that export them:
// muaa_broker_scan_outcomes_total by outcome (its "offered" is every admitted
// candidate, offered + displaced_by_slate; its "dimension_mismatch" is
// tag_mismatch; every other label is the disposition's own name),
// muaa_broker_offers_pushed_total is the offered column, and the columns sum
// to muaa_funnel_gathered_total.
func fleetColumns(t *testing.T, b *Broker, reg *obs.Registry) [numDispositions]uint64 {
	t.Helper()
	var columns [numDispositions]uint64
	var rows uint64
	for id := range b.dir.Load().campaigns {
		fc, err := b.CampaignFunnel(int32(id))
		if err != nil {
			t.Fatal(err)
		}
		conserved(t, fc)
		rows += fc.Gathered
		for d, v := range fc.dispositions() {
			columns[d] += v
		}
	}
	outcomes := make(map[string]float64)
	var pushed, gathered float64
	for _, p := range reg.Gather() {
		switch p.Name {
		case "muaa_broker_scan_outcomes_total":
			outcomes[p.Labels] = p.Value
		case "muaa_broker_offers_pushed_total":
			pushed = p.Value
		case "muaa_funnel_gathered_total":
			gathered = p.Value
		}
	}
	for d := funnelDisposition(0); d < dispDisplaced; d++ {
		label, want := dispositionNames[d], columns[d]
		switch d {
		case dispOffered:
			want += columns[dispDisplaced]
		case dispTagMismatch:
			label = "dimension_mismatch"
		}
		if got := outcomes[`{outcome="`+label+`"}`]; got != float64(want) {
			t.Errorf("muaa_broker_scan_outcomes_total{outcome=%q} = %v, funnel columns say %d", label, got, want)
		}
	}
	if len(outcomes) != int(dispDisplaced) {
		t.Errorf("muaa_broker_scan_outcomes_total has %d outcomes, want %d: %v", len(outcomes), dispDisplaced, outcomes)
	}
	if pushed != float64(columns[dispOffered]) {
		t.Errorf("muaa_broker_offers_pushed_total = %v, funnel offered column %d", pushed, columns[dispOffered])
	}
	if gathered != float64(rows) {
		t.Errorf("muaa_funnel_gathered_total = %v, funnel rows sum to %d", gathered, rows)
	}
	return columns
}

func TestFunnelDisabledByDefault(t *testing.T) {
	b := newTestBroker(t)
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.1, 10, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CampaignFunnel(0); err != ErrFunnelDisabled {
		t.Errorf("CampaignFunnel on a funnel-less broker: %v, want ErrFunnelDisabled", err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/debug/campaigns/{id}/funnel", b.ServeCampaignFunnel)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/campaigns/0/funnel", nil))
	if rec.Code != 404 {
		t.Fatalf("funnel-disabled GET → %d, want 404", rec.Code)
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("non-JSON error body %q: %v", rec.Body, err)
	}
	if env.Error.Code != "funnel_disabled" {
		t.Errorf("error code %q, want funnel_disabled", env.Error.Code)
	}
}

// TestFunnelAttributionGates drives one arrival shape through a fleet built
// so every campaign lands in a known, distinct gate.
func TestFunnelAttributionGates(t *testing.T) {
	reg := obs.NewRegistry()
	b := funnelBroker(t, Config{AdTypes: workload.DefaultAdTypes(), Metrics: reg})
	at := geo.Point{X: 0.5, Y: 0.5}
	winner, _ := b.RegisterCampaign(at, 0.1, 1e6, []float64{1, 0})
	loser, _ := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.58}, 0.1, 1e6, []float64{1, 0})
	paused, _ := b.RegisterCampaign(at, 0.1, 1e6, []float64{1, 0})
	mismatch, _ := b.RegisterCampaign(at, 0.1, 1e6, []float64{1, 0, 0.5})
	if err := b.SetPaused(paused, true); err != nil {
		t.Fatal(err)
	}

	const n = 10
	a := Arrival{Loc: at, Capacity: 1, ViewProb: 0.8, Interests: []float64{0.9, 0.1}, Hour: 12}
	for i := 0; i < n; i++ {
		offers, err := b.Arrive(a)
		if err != nil {
			t.Fatal(err)
		}
		if len(offers) != 1 || offers[0].Campaign != winner {
			t.Fatalf("arrival %d offers %+v, want one from campaign %d", i, offers, winner)
		}
	}

	for _, tc := range []struct {
		id   int32
		want func(FunnelCounts) uint64
		name string
	}{
		{winner, func(fc FunnelCounts) uint64 { return fc.Offered }, "offered"},
		// The farther campaign loses every arrival: displaced by the capacity
		// trim once admitted, or below the threshold while γ still tightens.
		{loser, func(fc FunnelCounts) uint64 { return fc.Displaced + fc.BelowThreshold }, "displaced/below_threshold"},
		{paused, func(fc FunnelCounts) uint64 { return fc.Paused }, "paused"},
		{mismatch, func(fc FunnelCounts) uint64 { return fc.TagMismatch }, "tag_mismatch"},
	} {
		fc, err := b.CampaignFunnel(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if fc.Gathered != n || tc.want(fc) != n {
			t.Errorf("campaign %d: gathered %d, %s %d, want both %d (%+v)",
				tc.id, fc.Gathered, tc.name, tc.want(fc), n, fc)
		}
		conserved(t, fc)
	}

	// Unknown campaigns error like every other accessor, funnel enabled or not.
	if _, err := b.CampaignFunnel(99); err == nil || err == ErrFunnelDisabled {
		t.Errorf("unknown campaign: %v, want a not-found error", err)
	}

	// Fleet totals: the winner's arrivals gathered 4 candidates each.
	if got := b.funnel.gathered.Load(); got != 4*n {
		t.Errorf("fleet gathered %d, want %d", got, 4*n)
	}
	fleetColumns(t, b, reg)

	// top ranks by gathered (all equal here) then ascending id.
	top := b.funnel.walk(2)
	if len(top) != 2 || top[0].Campaign != winner || top[1].Campaign != loser {
		t.Errorf("top(2) = %+v, want campaigns %d, %d", top, winner, loser)
	}
}

// TestFunnelExhaustionGate: a drained campaign moves through the funnel's
// budget gates — unaffordable/exhausted while it still has pennies, then
// exhausted (pass A) at zero — and conservation holds throughout.
func TestFunnelExhaustionGate(t *testing.T) {
	b := funnelBroker(t, Config{AdTypes: workload.DefaultAdTypes()})
	id, _ := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.1, 2.5, []float64{1, 0})
	a := Arrival{Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 2, ViewProb: 0.9,
		Interests: []float64{1, 0}, Hour: 12}
	for i := 0; i < 20; i++ {
		if _, err := b.Arrive(a); err != nil {
			t.Fatal(err)
		}
	}
	fc, err := b.CampaignFunnel(id)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Gathered != 20 || fc.Offered == 0 {
		t.Fatalf("funnel %+v: want 20 gathered with some offers before exhaustion", fc)
	}
	if fc.Exhausted+fc.Unaffordable == 0 {
		t.Errorf("drained campaign never hit a budget gate: %+v", fc)
	}
	conserved(t, fc)
}

// TestFunnelExactForEveryCampaign: the funnel is exact for every campaign of
// a fleet of any size. A fleet past 4096 campaigns takes concurrent arrivals
// that touch well over 64 distinct ids ≥ 4096 (the sizes at which rows were
// once shared and evicted); every row must be conserved, the rows must sum to
// muaa_funnel_gathered_total and, column by column, to the scan-outcome and
// offer families, a count seen in one top(16) read must never be lower in a
// later one, and top(n) must equal the first n rows of a full sort by
// (gathered desc, id asc).
func TestFunnelExactForEveryCampaign(t *testing.T) {
	const (
		side      = 66 // side² ≥ campaigns
		campaigns = 4096 + 200
		highID    = 4096
		arrivals  = 1200
		workers   = 4
	)
	reg := obs.NewRegistry()
	b := funnelBroker(t, Config{AdTypes: workload.DefaultAdTypes(), Shards: 8, Metrics: reg})
	for i := 0; i < campaigns; i++ {
		// Row-major lattice: ids ≥ highID fill the top rows (y > 0.93).
		loc := geo.Point{X: (float64(i%side) + 0.5) / side, Y: (float64(i/side) + 0.5) / side}
		tags, budget := []float64{1, 0.2}, 1e6
		if i%5 == 0 {
			tags = []float64{1, 0.2, 0.5} // tag_mismatch
		}
		if i%3 == 0 {
			budget = 3 // drains to exhausted
		}
		id, err := b.RegisterCampaign(loc, 0.03, budget, tags)
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if err := b.SetPaused(id, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	frac := func(x float64) float64 { return x - float64(int(x)) }
	drive := func(from, to int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := from + w; k < to; k += workers {
					// Two in three arrivals land in the strip the high ids cover.
					loc := geo.Point{X: frac(float64(k) * 0.6180339887), Y: frac(float64(k) * 0.4142135623)}
					if k%3 != 0 {
						loc.Y = 0.92 + 0.08*loc.Y
					}
					a := Arrival{Loc: loc, Capacity: 2, ViewProb: 0.8, Interests: []float64{0.9, 0.1}, Hour: 12}
					if _, err := b.Arrive(a); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	drive(0, arrivals/2)
	before := b.funnel.walk(16)
	if len(before) != 16 {
		t.Fatalf("top(16) after %d arrivals returned %d rows", arrivals/2, len(before))
	}
	drive(arrivals/2, arrivals)
	after := make(map[int32]uint64)
	for _, fc := range b.funnel.walk(16) {
		after[fc.Campaign] = fc.Gathered
	}
	for _, fc := range before {
		now, err := b.CampaignFunnel(fc.Campaign)
		if err != nil {
			t.Fatal(err)
		}
		if g, ok := after[fc.Campaign]; ok && g != now.Gathered {
			t.Errorf("campaign %d: top(16) says gathered %d, its row says %d", fc.Campaign, g, now.Gathered)
		}
		if now.Gathered < fc.Gathered {
			t.Errorf("campaign %d: gathered ran backwards, %d → %d", fc.Campaign, fc.Gathered, now.Gathered)
		}
	}

	all := make([]FunnelCounts, 0, campaigns)
	highTouched := 0
	for id := int32(0); id < campaigns; id++ {
		fc, err := b.CampaignFunnel(id)
		if err != nil {
			t.Fatal(err)
		}
		if fc.Gathered > 0 {
			all = append(all, fc)
			if id >= highID {
				highTouched++
			}
		}
	}
	if highTouched <= 64 {
		t.Fatalf("only %d campaigns with id ≥ %d were gathered; the load must touch more than 64", highTouched, highID)
	}
	columns := fleetColumns(t, b, reg)
	for _, d := range []funnelDisposition{dispOffered, dispPaused, dispExhausted, dispTagMismatch, dispDisplaced} {
		if columns[d] == 0 {
			t.Errorf("load never produced disposition %s", dispositionNames[d])
		}
	}

	sort.Slice(all, func(i, j int) bool {
		if all[i].Gathered != all[j].Gathered {
			return all[i].Gathered > all[j].Gathered
		}
		return all[i].Campaign < all[j].Campaign
	})
	for _, n := range []int{1, 16, 100, len(all), len(all) + 5} {
		want := all
		if n < len(all) {
			want = all[:n]
		}
		if got := b.funnel.walk(n); !slices.Equal(got, want) {
			t.Errorf("top(%d) differs from the first %d rows of the full sort", n, len(want))
		}
	}
}

// TestFunnelMetricsExposition: the muaa_funnel_* families land in the obs
// registry — the fleet gathered count and the bounded per-campaign collector
// — and the funnel's fleet-wide column sums are exactly what the scan-outcome
// and offer families export, on the legacy path and on a billed slate whose
// solver displaces admitted candidates.
func TestFunnelMetricsExposition(t *testing.T) {
	t.Run("legacy", func(t *testing.T) {
		reg := obs.NewRegistry()
		b := funnelBroker(t, Config{AdTypes: workload.DefaultAdTypes(), Metrics: reg})
		if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.1, 1e6, []float64{1, 0}); err != nil {
			t.Fatal(err)
		}
		a := Arrival{Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 1, ViewProb: 0.8,
			Interests: []float64{1, 0}, Hour: 12}
		for i := 0; i < 7; i++ {
			if _, err := b.Arrive(a); err != nil {
				t.Fatal(err)
			}
		}
		var sb strings.Builder
		reg.WriteText(&sb)
		out := sb.String()
		for _, want := range []string{
			"muaa_funnel_gathered_total 7",
			`muaa_funnel_campaign_total{campaign="0",disposition="gathered"} 7`,
			`muaa_funnel_campaign_total{campaign="0",disposition="offered"} 7`,
			`muaa_funnel_campaign_total{campaign="0",disposition="below_threshold"} 0`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("exposition missing %q:\n%s", want, out)
			}
		}
		if columns := fleetColumns(t, b, reg); columns[dispOffered] != 7 {
			t.Errorf("offered column %d, want 7", columns[dispOffered])
		}
	})
	t.Run("slate", func(t *testing.T) {
		reg := obs.NewRegistry()
		b := funnelBroker(t, Config{AdTypes: workload.DefaultAdTypes(), Metrics: reg})
		slateFleet(t, b, 6, model.Billing{Model: model.BillingCPM, ReserveECPM: 1})
		for i := 0; i < 7; i++ {
			if _, err := b.Arrive(slateArrival(2)); err != nil {
				t.Fatal(err)
			}
		}
		if columns := fleetColumns(t, b, reg); columns[dispOffered] == 0 || columns[dispDisplaced] == 0 {
			t.Errorf("funnel columns %v: the slate must both offer and displace", columns)
		}
	})
}

// TestFunnelConservationSoak is the -race conservation gate: under
// concurrent mixed traffic — on both the legacy and the slate scan path —
// the rows sum to the fleet gathered count at every cut CheckInvariants
// takes, and at the end their column sums are what the scan-outcome and
// offer families export.
func TestFunnelConservationSoak(t *testing.T) {
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	opsPerWorker := 300
	if testing.Short() {
		workers, opsPerWorker = 4, 80
	}
	const campaigns = 40
	// The slate load's own shape, so it reaches the slate's two gates: wide
	// disks put several campaigns in each arrival's gather, room for two or
	// more offers lets the slot race displace, and reserves straddle the
	// bids (cpm 1000–3000 eCPM, cpc 50–1500) so some campaigns price
	// themselves out.
	slate := workload.BilledBrokerLoadConfig(campaigns, workers*opsPerWorker, 78)
	slate.Radius = stats.Range{Lo: 0.15, Hi: 0.3}
	slate.Capacity = stats.Range{Lo: 2, Hi: 4}
	slate.ReserveECPM = stats.Range{Lo: 500, Hi: 2500}

	for _, tc := range []struct {
		name  string
		load  workload.BrokerLoadConfig
		gates []funnelDisposition // the load must reach each
	}{
		{"legacy", workload.DefaultBrokerLoadConfig(campaigns, workers*opsPerWorker, 77), nil},
		{"slate", slate, []funnelDisposition{dispBelowReserve, dispDisplaced}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			specs, ops, err := workload.BrokerLoad(tc.load)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			b := funnelBroker(t, Config{AdTypes: workload.DefaultAdTypes(), Shards: 8, Metrics: reg})
			registerLoad(t, b, specs)

			stop := invariantsDuring(t, b)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					feed := &opFeed{tb: t, b: b}
					for i := w; i < len(ops); i += workers {
						feed.apply(ops[i])
					}
				}(w)
			}
			wg.Wait()
			stop()

			columns := fleetColumns(t, b, reg)
			if b.funnel.gathered.Load() == 0 {
				t.Error("soak gathered nothing; load shape is wrong")
			}
			for _, d := range tc.gates {
				if columns[d] == 0 {
					t.Errorf("load never produced disposition %s: %v", dispositionNames[d], columns)
				}
			}
		})
	}
}

// TestFunnelRowsUnderShardLocks is the -race gate for the rows' locking rule:
// they are plain words, written by folds under the owning shard's lock and
// read by CampaignFunnel under that one lock and by the scrape's walk under
// all of them. ArriveBatch windows covering every stripe race CampaignFunnel
// readers, full /metrics scrapes, direct walks, controller epochs (PacingStep
// takes regMu, then every shard lock) and registrations (regMu, then one shard
// lock; a third of them in a second taxonomy) — the funnel readers take shard
// locks only, ascending, so the global order regMu → shards ascending →
// billing mutex holds with them in it, and CheckInvariants, taking all three,
// races them too. A count must never run backwards between two reads; after
// quiescence the contract holds and the rows' column sums agree with the
// scraped scan-outcome, offer and gathered families.
func TestFunnelRowsUnderShardLocks(t *testing.T) {
	const (
		seeded  = 96 // campaigns registered before traffic
		late    = 160
		workers = 4
		windows = 40 // per worker, 16 arrivals each
	)
	reg := obs.NewRegistry()
	ctl := pacing.Default()
	b := funnelBroker(t, Config{AdTypes: workload.DefaultAdTypes(), Shards: 8, Metrics: reg, Controller: &ctl})
	specs, ops, err := workload.BrokerLoad(workload.BilledBrokerLoadConfig(seeded, workers*windows*16, 27))
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, b, specs)
	var arrivals []Arrival
	for _, op := range ops {
		if op.Kind == workload.OpArrival {
			arrivals = append(arrivals, arrivalOf(op))
		}
	}

	var traffic, observers sync.WaitGroup
	stop := make(chan struct{})
	observe := func(f func()) {
		observers.Add(1)
		go func() {
			defer observers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			for k := 0; k < windows; k++ {
				// A window of arrivals strided across the stream lands on every
				// stripe, so its covering interval is the whole broker.
				var batch [16]Arrival
				for i := range batch {
					batch[i] = arrivals[(w+workers*(k+windows*i))%len(arrivals)]
				}
				for _, r := range b.ArriveBatch(batch[:]) {
					if r.Err != nil {
						t.Error(r.Err)
						return
					}
				}
			}
		}(w)
	}
	traffic.Add(1)
	go func() {
		defer traffic.Done()
		for i := 0; i < late; i++ {
			tags := specs[i%seeded].Tags
			if i%3 == 0 {
				tags = tags[:3]
			}
			loc := geo.Point{X: 0.05 + 0.9*float64(i%13)/13, Y: 0.05 + 0.9*float64(i%17)/17}
			if _, err := b.RegisterCampaign(loc, 0.2, 50, tags); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	seen := make([]uint64, seeded) // the CampaignFunnel reader's own
	next := 0
	observe(func() {
		fc, err := b.CampaignFunnel(int32(next))
		if err != nil {
			t.Error(err)
			return
		}
		conserved(t, fc)
		if fc.Gathered < seen[next] {
			t.Errorf("campaign %d: gathered ran backwards, %d → %d", next, seen[next], fc.Gathered)
		}
		seen[next], next = fc.Gathered, (next+1)%seeded
	})
	observe(func() { reg.WriteText(io.Discard) })
	topSeen := make(map[int32]uint64) // the walk reader's own
	observe(func() {
		top := b.funnel.walk(funnelTopN)
		var sum uint64
		for _, fc := range top {
			conserved(t, fc)
			if fc.Gathered < topSeen[fc.Campaign] {
				t.Errorf("campaign %d: gathered ran backwards between walks, %d → %d", fc.Campaign, topSeen[fc.Campaign], fc.Gathered)
			}
			topSeen[fc.Campaign] = fc.Gathered
			sum += fc.Gathered
		}
		// One cut under every shard lock: no fold is half in it, and a fold
		// bumps the fleet counter before its rows, so the rows read sum to at
		// most what the fleet has gathered by now.
		if now := b.funnel.gathered.Load(); sum > now {
			t.Errorf("top rows sum %d, fleet gathered only %d", sum, now)
		}
	})
	observe(func() {
		if _, err := b.PacingStep(); err != nil {
			t.Error(err)
		}
	})
	observe(func() {
		if err := b.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
	traffic.Wait()
	// One more pass with the observers still running, so every late campaign
	// is gathered however the registrations interleaved with the workers.
	for at := 0; at+16 <= len(arrivals); at += 16 {
		b.ArriveBatch(arrivals[at : at+16])
	}
	close(stop)
	observers.Wait()
	if t.Failed() {
		t.FailNow()
	}

	checkInvariants(t, b)
	if n := len(b.dir.Load().campaigns); n != seeded+late {
		t.Fatalf("%d campaigns registered, want %d", n, seeded+late)
	}
	columns := fleetColumns(t, b, reg)
	if b.funnel.gathered.Load() == 0 {
		t.Error("traffic gathered nothing")
	}
	if columns[dispTagMismatch] == 0 {
		t.Error("no campaign of the second taxonomy was ever gathered")
	}
}

// BenchmarkFunnelWalk prices one scrape's walk — every row of the `dense`
// fleet's 8 192 campaigns read under every shard lock — which is how long a
// scrape holds the serving path out. "cold" evicts the rows between walks by
// serving a window of arrivals, as a real scrape interval does.
func BenchmarkFunnelWalk(b *testing.B) {
	br, err := New(Config{AdTypes: workload.DefaultAdTypes(), Funnel: FunnelConfig{Enabled: true}})
	if err != nil {
		b.Fatal(err)
	}
	arrivals := denseMarket(b, br, false)
	br.ArriveBatch(arrivals[:512])
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			br.funnel.walk(funnelTopN)
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			at := 64 * (i % (len(arrivals) / 64))
			br.ArriveBatch(arrivals[at : at+64])
			b.StartTimer()
			br.funnel.walk(funnelTopN)
		}
	})
}

// TestReplayMatchesGoldenFunnelEnabled: funnel attribution is
// observation-only — the golden transcript with the funnel (and metrics)
// enabled is byte-identical to the uninstrumented reference.
func TestReplayMatchesGoldenFunnelEnabled(t *testing.T) {
	cfg := Config{AdTypes: workload.DefaultAdTypes(), Metrics: obs.NewRegistry(),
		Funnel: FunnelConfig{Enabled: true}}
	got := replayTranscript(t, cfg, 32, 3000, 42)
	want, err := os.ReadFile(filepath.Join("testdata", "replay_default.golden"))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	if got != string(want) {
		t.Fatalf("funnel attribution changed the replay transcript (%d vs %d bytes, first diff at byte %d)",
			len(got), len(want), firstDiff(got, string(want)))
	}
}

// TestArriveAppendZeroAllocsFunnel holds the allocation bar with the funnel
// recording: the event slice is arena scratch and the exact-region fold is
// lock-free, so a warm serial arrival still allocates nothing.
func TestArriveAppendZeroAllocsFunnel(t *testing.T) {
	b := funnelBroker(t, Config{AdTypes: workload.DefaultAdTypes()})
	for i := 0; i < 64; i++ {
		x := float64(i%8)/8 + 0.05
		y := float64(i/8)/8 + 0.05
		if _, err := b.RegisterCampaign(geo.Point{X: x, Y: y}, 0.15, 1e9, []float64{1, 0.5, 1}); err != nil {
			t.Fatal(err)
		}
	}
	a := Arrival{Loc: geo.Point{X: 0.4, Y: 0.4}, Capacity: 2, ViewProb: 0.8,
		Interests: []float64{1, 0.5, 1}, Hour: 12}
	dst := make([]Offer, 0, 16)
	for i := 0; i < 16; i++ {
		out, err := b.ArriveAppend(dst[:0], a)
		if err != nil {
			t.Fatal(err)
		}
		dst = out[:0]
	}
	allocs := testing.AllocsPerRun(200, func() {
		out, err := b.ArriveAppend(dst[:0], a)
		if err != nil {
			t.Fatal(err)
		}
		dst = out[:0]
	})
	if allocs != 0 {
		t.Fatalf("funnel-enabled serial arrival allocates %v times per op, want 0", allocs)
	}
}
