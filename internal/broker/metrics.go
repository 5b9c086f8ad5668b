package broker

import (
	"strconv"

	"muaa/internal/obs"
	"muaa/internal/trace"
)

// brokerMetrics holds the broker's registered instruments. It is built once
// in New when Config.Metrics is set and never mutated afterwards, so the
// hot path reads it without synchronization; a nil *brokerMetrics means the
// broker runs uninstrumented and an untraced arrival takes no clock readings
// at all.
//
// Instrumentation is observation-only by construction: nothing in this file
// feeds back into admission decisions, which is what keeps the golden
// replay transcripts byte-identical with metrics on (asserted by
// TestReplayMatchesGoldenInstrumented).
type brokerMetrics struct {
	// End-to-end latency of a single submission, and the four stage spans of
	// every pipeline call (arriveBatch), single or batch, indexed like
	// trace.StageNames: lock_wait (acquiring the stripe interval), gather (Σ
	// grid queries + candidate ordering), scan (Σ score, threshold walk, slot
	// resolve and charge), commit (the one WAL append). Each call that accepts
	// at least one arrival observes all four exactly once; a call whose every
	// element was rejected never takes a lock and observes nothing.
	arrival *obs.Histogram
	stages  [trace.NumStages]*obs.Histogram

	// Per-stripe lock traffic: stripeLocks[i] counts acquisitions of stripe
	// i's lock by arrivals; stripeContended[i] counts the subset where the
	// lock was already held (a TryLock miss) — the contention proxy.
	stripeLocks     []*obs.Counter
	stripeContended []*obs.Counter

	// Scan outcomes, one per candidate campaign examined, indexed by the
	// disposition the scan tallied it under. "offered" counts every candidate
	// the walk admitted, the ones the capacity resolve then displaced
	// included: offered − muaa_broker_offers_pushed_total is the number
	// displaced, until a restart (the offers counter is recovered from the
	// log, these start at zero).
	scanOutcomes    [dispDisplaced]*obs.Counter
	exhaustedEvents *obs.Counter
	offersByType    []*obs.Counter // indexed like cfg.AdTypes

	// Batch submission: arrivals per ArriveBatch call (validation rejects
	// excluded). The stage histograms and scan counters above are fed by the
	// pipeline itself, whichever way the window was submitted.
	batchSize *obs.Histogram
}

// Latency bucket layouts, fixed at construction (see internal/obs): the
// arrival path costs single-digit microseconds uncontended, so both start
// well below that and span past anything a loaded scrape should ever see.
var (
	arrivalBuckets = obs.ExpBuckets(1e-6, 2, 16)   // 1 µs … ~32.8 ms
	stageBuckets   = obs.ExpBuckets(2.5e-7, 2, 16) // 250 ns … ~8.2 ms
)

// scanOutcomeNames are the outcome labels of muaa_broker_scan_outcomes_total,
// indexed like brokerMetrics.scanOutcomes.
var scanOutcomeNames = [dispDisplaced]string{
	"offered", "paused", "exhausted", "dimension_mismatch", "low_score",
	"unaffordable", "below_threshold", "below_reserve",
}

// foldScanTally adds one scan's outcome tallies (accumulated branch-free in
// the scan loop) into the registered counters.
func (m *brokerMetrics) foldScanTally(t *scanTally) {
	for d, c := range m.scanOutcomes {
		if n := t.disp[d]; n > 0 {
			c.Add(n)
		}
	}
	if n := t.disp[dispDisplaced]; n > 0 {
		m.scanOutcomes[dispOffered].Add(n)
	}
}

// newBrokerMetrics registers every broker instrument on reg. The gauge and
// counter funcs sample b's own lock-free atomics at scrape time, so scraping
// never blocks serving.
func newBrokerMetrics(reg *obs.Registry, b *Broker) *brokerMetrics {
	m := &brokerMetrics{
		arrival: reg.NewHistogram("muaa_broker_arrival_seconds",
			"End-to-end latency of one single-arrival submission (Arrive, POST /v1/arrivals), lock wait through WAL append.",
			arrivalBuckets),
		exhaustedEvents: reg.NewCounter("muaa_broker_campaign_exhausted_total",
			"Commits that left a campaign's budget net of spend and escrow below the cheapest ad type."),
		batchSize: reg.NewHistogram("muaa_broker_batch_size",
			"Arrivals per ArriveBatch call (validation rejects excluded).",
			obs.ExpBuckets(1, 2, 11)),
	}
	for d, name := range scanOutcomeNames {
		m.scanOutcomes[d] = reg.NewCounter("muaa_broker_scan_outcomes_total",
			"Candidate campaigns examined by the O-AFA scan, by outcome.",
			obs.L("outcome", name))
	}
	for s, name := range trace.StageNames {
		m.stages[s] = reg.NewHistogram("muaa_broker_arrival_stage_seconds",
			"Latency of one stage of one arrival-pipeline call, single or batch; every call observes all four stages.",
			stageBuckets, obs.L("stage", name))
	}
	for i := range b.shards {
		stripe := obs.L("stripe", strconv.Itoa(i))
		m.stripeLocks = append(m.stripeLocks, reg.NewCounter(
			"muaa_broker_stripe_lock_total",
			"Stripe-lock acquisitions by arrivals, per stripe.", stripe))
		m.stripeContended = append(m.stripeContended, reg.NewCounter(
			"muaa_broker_stripe_lock_contended_total",
			"Stripe-lock acquisitions that found the lock held (TryLock miss), per stripe.", stripe))
	}
	for k, t := range b.cfg.AdTypes {
		m.offersByType = append(m.offersByType, reg.NewCounter(
			"muaa_broker_offers_total",
			"Offers committed, by ad type.", obs.L("adtype", t.Name), obs.L("k", strconv.Itoa(k))))
	}

	// The two Stats counters the dashboard and the benchmark rate, sampled
	// from the broker's atomics.
	reg.NewCounterFunc("muaa_broker_arrivals_total",
		"Customer arrivals processed (including zero-capacity ones).",
		func() float64 { return float64(b.arrivals.Load()) })
	reg.NewCounterFunc("muaa_broker_offers_pushed_total",
		"Total offers pushed to customers.",
		func() float64 { return float64(b.offers.Load()) })

	// The live O-AFA state: the γ-estimator's floor, the derived threshold
	// base g, and the adaptive threshold φ(δ) at three reference budget-usage
	// ratios. All report 0 until the first efficiency is observed, matching
	// Stats.
	reg.NewGaugeFunc("muaa_broker_gamma_min",
		"Running minimum observed offer efficiency (0 until the first observation).",
		func() float64 {
			if b.gammaMax.Load() == 0 {
				return 0
			}
			return b.gammaMin.Load()
		})
	// Reporting-only, unclamped (gammaState.reportedG, shared with Stats.G):
	// admission clamps the derived base to [2e, 1e9], this gauge does not.
	reg.NewGaugeFunc("muaa_broker_threshold_g",
		"Adaptive threshold base g: configured, or derived as e·γ_max/γ_min once observations exist.",
		func() float64 {
			var gs gammaState
			b.gammaSeed(&gs)
			return gs.reportedG()
		})
	for _, delta := range []float64{0, 0.5, 1} {
		delta := delta
		reg.NewGaugeFunc("muaa_broker_threshold",
			"Live admission threshold φ(δ) = γ_min/e · g^δ at reference budget-usage ratios δ.",
			func() float64 {
				var gs gammaState
				b.gammaSeed(&gs)
				return gs.threshold(delta)
			},
			obs.L("delta", strconv.FormatFloat(delta, 'g', -1, 64)))
	}
	registerBillingMetrics(reg, b.billing)
	if b.audit != nil {
		registerAuditMetrics(reg, b)
	}
	if b.controller != nil {
		registerPacingMetrics(reg, b)
	}
	if b.funnel != nil {
		registerFunnelMetrics(reg, b)
	}
	return m
}
