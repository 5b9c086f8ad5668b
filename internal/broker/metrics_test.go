package broker

import (
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"muaa/internal/geo"
	"muaa/internal/obs"
	"muaa/internal/workload"
)

// instrumentedBroker builds a broker with the full instrument set and a
// deterministic campaign population.
func instrumentedBroker(t *testing.T, cfg Config, campaigns int, seed int64) (*Broker, *obs.Registry, []workload.BrokerOp) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	if cfg.AdTypes == nil {
		cfg.AdTypes = workload.DefaultAdTypes()
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs, ops, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(campaigns, 2000, seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range specs {
		if _, err := b.RegisterCampaign(c.Loc, c.Radius, c.Budget, c.Tags); err != nil {
			t.Fatal(err)
		}
	}
	return b, reg, ops
}

func applyTestOp(t *testing.T, b *Broker, op workload.BrokerOp) {
	t.Helper()
	switch op.Kind {
	case workload.OpArrival:
		if _, err := b.Arrive(Arrival{Loc: op.Loc, Capacity: op.Capacity,
			ViewProb: op.ViewProb, Interests: op.Interests, Hour: op.Hour}); err != nil {
			t.Fatal(err)
		}
	case workload.OpTopUp:
		if err := b.TopUp(op.Campaign, op.Amount); err != nil {
			t.Fatal(err)
		}
	case workload.OpPause:
		if err := b.SetPaused(op.Campaign, op.Paused); err != nil {
			t.Fatal(err)
		}
	default:
		b.Stats()
	}
}

// TestBrokerMetricsScrape drives traffic through an instrumented broker and
// checks the scrape against the broker's own Stats snapshot: the exposition
// must cover the arrival latency histograms, per-stripe lock counters, and
// the live threshold/γ gauges, with values consistent with Stats.
func TestBrokerMetricsScrape(t *testing.T) {
	b, reg, ops := instrumentedBroker(t, Config{Shards: 4}, 24, 7)
	for _, op := range ops {
		applyTestOp(t, b, op)
	}
	st := b.Stats()
	if st.OffersPushed == 0 {
		t.Fatal("workload produced no offers; the scrape assertions below would be vacuous")
	}

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE muaa_broker_arrival_seconds histogram",
		`muaa_broker_arrival_stage_seconds_bucket{stage="lock_wait",le="+Inf"}`,
		`muaa_broker_arrival_stage_seconds_bucket{stage="gather",le="+Inf"}`,
		`muaa_broker_arrival_stage_seconds_bucket{stage="scan",le="+Inf"}`,
		`muaa_broker_arrival_stage_seconds_bucket{stage="commit",le="+Inf"}`,
		`muaa_broker_stripe_lock_total{stripe="0"}`,
		`muaa_broker_stripe_lock_total{stripe="3"}`,
		`muaa_broker_scan_outcomes_total{outcome="offered"}`,
		"muaa_broker_gamma_min ",
		"muaa_broker_threshold_g ",
		`muaa_broker_threshold{delta="0"}`,
		`muaa_broker_threshold{delta="1"}`,
		"muaa_broker_arrivals_total ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Cross-check the sampled counters against Stats.
	h := reg.FindHistogram("muaa_broker_arrival_seconds")
	if h == nil {
		t.Fatal("arrival histogram not registered")
	}
	snap := h.Snapshot()
	if snap.Count == 0 || snap.Count > uint64(st.Arrivals) {
		t.Fatalf("arrival histogram count %d vs %d arrivals", snap.Count, st.Arrivals)
	}
	if q := snap.Quantile(0.99); math.IsNaN(q) || q <= 0 {
		t.Fatalf("p99 arrival latency = %g", q)
	}
	// One stage accounting: every pipeline call that accepted an arrival
	// observes all four stages exactly once — here one call per arrival, so
	// each stage counts what the arrival histogram counts, commit included
	// whether or not the arrival committed anything.
	for _, stage := range []string{"lock_wait", "gather", "scan", "commit"} {
		sh := reg.FindHistogram("muaa_broker_arrival_stage_seconds", obs.L("stage", stage))
		if sh == nil {
			t.Fatalf("stage %q histogram not registered", stage)
		}
		if got := sh.Snapshot().Count; got != uint64(st.Arrivals) {
			t.Errorf("stage %q observed %d times, want one per pipeline call (%d)", stage, got, st.Arrivals)
		}
	}
	if snap.Count != uint64(st.Arrivals) {
		t.Errorf("arrival histogram count %d, want one per single submission (%d)", snap.Count, st.Arrivals)
	}
	if !strings.Contains(body, "muaa_broker_offers_pushed_total "+strconv.FormatInt(st.OffersPushed, 10)) {
		t.Errorf("offers_pushed_total does not match Stats.OffersPushed = %d", st.OffersPushed)
	}
}

// TestBrokerMetricsLockAccounting pins the lock counters to ground truth on
// a geometry small enough to reason about: every arrival locks exactly the
// stripes its query disk overlaps.
func TestBrokerMetricsLockAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Shards: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// One campaign with a tiny radius so maxRadius keeps lock ranges narrow.
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.125}, 0.01, 10, []float64{1}); err != nil {
		t.Fatal(err)
	}
	// An arrival in the middle of stripe 0 (y < 0.25 - maxRadius) locks
	// stripe 0 only; one in stripe 3 locks stripe 3 only.
	for _, y := range []float64{0.1, 0.9} {
		if _, err := b.Arrive(Arrival{Loc: geo.Point{X: 0.5, Y: y}, Capacity: 1, ViewProb: 1, Interests: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	counts := make([]uint64, 4)
	for i := range counts {
		counts[i] = b.metrics.stripeLocks[i].Value()
	}
	if counts[0] != 1 || counts[1] != 0 || counts[2] != 0 || counts[3] != 1 {
		t.Fatalf("stripe lock counts = %v, want [1 0 0 1]", counts)
	}
}

// TestBrokerMetricsExhaustion spends a campaign to the floor and checks the
// exhaustion event fires exactly once.
func TestBrokerMetricsExhaustion(t *testing.T) {
	reg := obs.NewRegistry()
	// One ad type costing 1, budget 2: two offers exhaust the campaign.
	b, err := New(Config{
		AdTypes: workload.DefaultAdTypes()[:1], // Text Link, cost 1
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.1, 2, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	arrival := Arrival{Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 1, ViewProb: 1, Interests: []float64{1, 0}}
	for i := 0; i < 4; i++ {
		if _, err := b.Arrive(arrival); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.BudgetSpent != 2 {
		t.Fatalf("spent %g, want the full budget 2", st.BudgetSpent)
	}
	if got := b.metrics.exhaustedEvents.Value(); got != 1 {
		t.Fatalf("exhaustion events = %d, want exactly 1", got)
	}
	// The two post-exhaustion arrivals must show up as exhausted scans.
	if got := b.metrics.scanOutcomes[dispExhausted].Value(); got != 2 {
		t.Fatalf("exhausted scans = %d, want 2", got)
	}
}

// TestBrokerMetricsConcurrentSoak hammers an instrumented broker from many
// goroutines under -race and asserts conservation: the latency histogram
// counts exactly the served arrivals, and per-stripe lock acquisitions are
// at least one per served arrival.
func TestBrokerMetricsConcurrentSoak(t *testing.T) {
	b, reg, ops := instrumentedBroker(t, Config{Shards: 8}, 32, 11)
	const workers = 8
	var wg sync.WaitGroup
	var served int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := int64(0)
			for i := w; i < len(ops); i += workers {
				op := ops[i]
				if op.Kind == workload.OpArrival && op.Capacity > 0 {
					local++
				}
				applyTestOp(t, b, op)
			}
			mu.Lock()
			served += local
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	h := reg.FindHistogram("muaa_broker_arrival_seconds")
	snap := h.Snapshot()
	if snap.Count != uint64(served) {
		t.Fatalf("arrival histogram count = %d, want %d (one per positive-capacity arrival)", snap.Count, served)
	}
	var locks uint64
	for _, c := range b.metrics.stripeLocks {
		locks += c.Value()
	}
	if locks < uint64(served) {
		t.Fatalf("stripe lock acquisitions %d < served arrivals %d", locks, served)
	}
	// Stage histograms must agree with each other on the arrival count.
	for _, stage := range []string{"lock_wait", "gather", "scan"} {
		sh := reg.FindHistogram("muaa_broker_arrival_stage_seconds", obs.L("stage", stage))
		if got := sh.Snapshot().Count; got != uint64(served) {
			t.Fatalf("stage %q count = %d, want %d", stage, got, served)
		}
	}
}
