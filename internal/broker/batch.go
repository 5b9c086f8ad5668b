package broker

// Arrival ingestion: one pipeline for every way of submitting an arrival.
// The paper has one rule for an arriving customer (PAPER.md Alg. 2, in
// arrival order); a window of arrivals is that sequence with the per-call
// fixed costs — stripe-lock acquisition, clock anchoring, WAL record framing
// and group commit — paid once (core.OnlineBatch models the setting offline).
// So arriveBatch is the only code that validates, locks, decides, charges and
// logs, and a single submission (Arrive, ArriveAppend, ArriveTraced,
// POST /v1/arrivals) is its window of one.
//
// Split invariance: arrivals are processed strictly in submission order and
// no state outlives an element of the window, so for any split of a stream
// into calls, Stats, per-campaign spend, every committed offer and the
// recovered (WAL-replayed) state are bit-identical (TestSerialIsBatchOfOne,
// TestBrokerMatchesRefModel, TestBatchReplayBitExact). Stripe sorting happens
// only in lock acquisition — the covering stripe interval is locked once,
// ascending, before the first arrival is examined — never in processing
// order.
//
// What differs by submission shape lives in the two wrappers, arriveOne and
// arriveBatchTraced, not in the pipeline: which latency family is observed
// and what the trace looks like.

import (
	"slices"
	"time"

	"muaa/internal/trace"
)

// BatchResult is one arrival's outcome inside an ArriveBatch call: the
// offers committed for it, or the validation error that rejected it (a
// rejected arrival consumes nothing and is not counted or logged — partial
// failure is per element, never whole-batch).
type BatchResult struct {
	Offers []Offer
	Err    error
}

// Arrive processes a customer arrival with the O-AFA rule (Algorithm 2) over
// live campaign state and commits the returned offers' costs to their
// campaigns. Only the shards whose stripes the query disk overlaps are
// locked, and they stay locked through commit so admission and spend are one
// atomic step per campaign.
func (b *Broker) Arrive(a Arrival) ([]Offer, error) {
	return b.arriveOne(&a, nil, nil)
}

// ArriveAppend is Arrive with a caller-owned result buffer: committed offers
// are appended to dst and the extended slice returned, so a serving loop that
// recycles its buffer processes arrivals with zero allocations.
func (b *Broker) ArriveAppend(dst []Offer, a Arrival) ([]Offer, error) {
	return b.arriveOne(&a, nil, dst)
}

// ArriveTraced is Arrive plus request tracing: when the broker has a flight
// recorder and req carries a trace context, the arrival's stage timings,
// stripe range, scan tallies and outcome are cut into one trace.Trace and
// recorded after the stripe locks release. With either part missing it is
// exactly Arrive. Tracing is observation-only — the decision sequence and
// replay transcripts are unchanged (TestReplayMatchesGoldenTraced).
func (b *Broker) ArriveTraced(a Arrival, req *trace.Request) ([]Offer, error) {
	return b.arriveOne(&a, req, nil)
}

// ArriveBatch processes a window of arrivals as one unit: the covering
// stripe interval is locked once, one clock anchor times the whole batch,
// every arrival is processed in submission order, and a durable broker
// appends a single arrivals record framing all of them. Results are per
// arrival, index-aligned with batch. Offer slices in the results alias one
// shared buffer owned by the caller.
func (b *Broker) ArriveBatch(batch []Arrival) []BatchResult {
	return b.arriveBatchTraced(batch, nil, &batchScratch{})
}

// ArriveBatchTraced is ArriveBatch plus request tracing: one root span named
// "arrival_batch" covering the whole call, with per-arrival outcomes in the
// trace's batch table. With no recorder or no trace context it is exactly
// ArriveBatch.
func (b *Broker) ArriveBatchTraced(batch []Arrival, req *trace.Request) []BatchResult {
	return b.arriveBatchTraced(batch, req, &batchScratch{})
}

// batchScratch is the two buffers a batch call returns views of: the
// per-arrival results and the one offer slice they all alias. A caller that
// is done with one call's results before it makes the next (the HTTP batch
// route, which has rendered them) lends the same scratch again and the
// steady state allocates neither; the exported entry points hand in an empty
// one, so their callers own what they get back.
type batchScratch struct {
	results []BatchResult
	offers  []Offer
}

// startTrace opens the trace of one submission, or returns nil when the
// broker has no flight recorder or the request no trace context.
func (b *Broker) startTrace(req *trace.Request) *trace.Trace {
	if req == nil || b.tracer == nil {
		return nil
	}
	return &trace.Trace{TraceID: req.TraceID, SpanID: req.SpanID, ParentSpanID: req.ParentSpanID}
}

// outcome classifies one arrival's result for its trace.
func (r *BatchResult) outcome() string {
	switch {
	case r.Err != nil:
		return trace.OutcomeError
	case len(r.Offers) > 0:
		return trace.OutcomeOffered
	}
	return trace.OutcomeNoOffers
}

// arriveOne is single submission: the pipeline over a window of one, observed
// as muaa_broker_arrival_seconds (with the trace ID as a candidate exemplar,
// so the slowest observation in a scrape window links to its trace) and
// traced as an "arrival". Committed offers are appended to dst — nil, the
// caller's own buffer, or a pooled one the HTTP route lends — and the
// extended slice returned. The window and its result live on this frame.
func (b *Broker) arriveOne(a *Arrival, req *trace.Request, dst []Offer) ([]Offer, error) {
	batch := [1]Arrival{*a}
	var results [1]BatchResult
	t := b.startTrace(req)
	dst, live, lane, elapsed := b.arriveBatch(batch[:], results[:], dst, t)
	r := &results[0]
	if m := b.metrics; m != nil && live > 0 {
		if t != nil {
			m.arrival.ObserveShardExemplar(lane, elapsed.Seconds(), t.TraceID.String())
		} else {
			m.arrival.ObserveShard(lane, elapsed.Seconds())
		}
	}
	if t != nil {
		t.Capacity = a.Capacity
		t.Offers = len(r.Offers)
		t.Outcome = r.outcome()
		if r.Err != nil {
			t.Error = r.Err.Error()
		}
		t.Anomalous = r.Err != nil || t.Scan.Exhausted > 0
		b.tracer.Record(t)
	}
	b.captureBatch(batch[:], results[:])
	return dst, r.Err
}

// arriveBatchTraced is batch submission: the pipeline over the window,
// observed as muaa_broker_batch_size and traced as an "arrival_batch" with one
// outcome row per submitted arrival.
func (b *Broker) arriveBatchTraced(batch []Arrival, req *trace.Request, sc *batchScratch) []BatchResult {
	results := slices.Grow(sc.results[:0], len(batch))[:len(batch)]
	clear(results)
	sc.results = results
	t := b.startTrace(req)
	offers, live, _, _ := b.arriveBatch(batch, results, sc.offers[:0], t)
	sc.offers = offers
	if m := b.metrics; m != nil {
		m.batchSize.Observe(float64(live))
	}
	if t != nil {
		t.Batch = len(batch)
		t.BatchOutcomes = make([]trace.BatchOutcome, len(results))
		for i := range results {
			r, o := &results[i], &t.BatchOutcomes[i]
			o.Outcome = r.outcome()
			o.Offers = len(r.Offers)
			if r.Err != nil {
				o.Error = r.Err.Error()
			}
			t.Offers += len(r.Offers)
			t.Capacity += batch[i].Capacity
		}
		switch {
		case live == 0 && len(batch) > 0:
			t.Outcome = trace.OutcomeError
		case t.Offers > 0:
			t.Outcome = trace.OutcomeOffered
		default:
			t.Outcome = trace.OutcomeNoOffers
		}
		t.Anomalous = live < len(batch) || t.Scan.Exhausted > 0
		b.tracer.Record(t)
	}
	b.captureBatch(batch, results)
	return results
}

// captureBatch feeds the accepted arrivals to the live-audit window in
// submission order, after the stripe locks have been released.
func (b *Broker) captureBatch(batch []Arrival, results []BatchResult) {
	if b.audit == nil {
		return
	}
	for i := range results {
		if results[i].Err == nil {
			b.audit.capture(&batch[i], results[i].Offers)
		}
	}
}

// stageClock cuts a pipeline call into back-to-back stage spans. One full
// time.Now() anchors the wall-clock start; every boundary after it is a
// time.Since delta (a single monotonic-clock read, about half the cost) off
// that anchor. mark is the elapsed time at the previous boundary, so the laps
// partition [0, mark] exactly and a trace's child spans sum to its root span.
type stageClock struct {
	start time.Time
	mark  time.Duration
}

// lap returns the time since the previous boundary and moves the boundary.
func (c *stageClock) lap() time.Duration {
	el := time.Since(c.start)
	d := el - c.mark
	c.mark = el
	return d
}

// arriveBatch is the arrival pipeline: validate every element, lock the
// covering stripe interval, then per accepted arrival the kernel stages —
// gather, scan, commit (see kernel.go) — and one WAL record for the window.
// results is the caller's zeroed, index-aligned out-buffer; committed offers
// are appended to offers and the extended slice returned. It also reports how
// many elements were accepted, the lowest locked stripe (an uncontended
// histogram lane for the caller) and, when timed, the elapsed time from lock
// wait through WAL append.
//
// Timed (metrics or t set), the call is cut into four stage spans, the same
// for every window size and fed to both the stage histograms and the trace,
// so tracing adds no clock reads: lock_wait is the interval acquisition,
// gather the sum of the grid probes, scan the sum of score + walk + resolve +
// charge (and the element's WAL body encoding), commit the one WAL append —
// next to nothing on an in-memory broker. That is two monotonic-clock reads
// per arrival.
func (b *Broker) arriveBatch(batch []Arrival, results []BatchResult, offers []Offer, t *trace.Trace) (_ []Offer, live, lane int, elapsed time.Duration) {
	m := b.metrics

	// The covering stripe interval: the union of every accepted arrival's
	// own stripe range. A covering campaign's center is within maxRadius of
	// the arrival, so only the stripes overlapping that Y-window can hold one;
	// a zero-capacity arrival is only counted, which its home stripe
	// serializes against snapshot quiescence like every other mutation.
	// Contiguous by construction — stripe ranges are intervals — and locked
	// once, ascending, the global lock order.
	maxR := b.maxRadius.Load()
	lo, hi := len(b.shards), -1
	for i := range batch {
		a := &batch[i]
		if err := validateArrival(a); err != nil {
			results[i].Err = err
			continue
		}
		live++
		var s0, s1 int
		if a.Capacity == 0 {
			s0 = b.stripes.Of(a.Loc)
			s1 = s0
		} else {
			s0, s1 = b.stripes.Range(a.Loc.Y-maxR, a.Loc.Y+maxR)
		}
		lo, hi = min(lo, s0), max(hi, s1)
	}
	if live == 0 {
		if t != nil {
			// Nothing reaches the timed pipeline; stamp the trace so the
			// recorder can still order it.
			t.Start = time.Now()
		}
		return offers, 0, 0, 0
	}

	timed := m != nil || t != nil
	var clk stageClock
	var stages [trace.NumStages]time.Duration
	if timed {
		clk.start = time.Now()
	}
	b.lockStripes(lo, hi, m)
	defer b.unlockStripes(lo, hi)
	if timed {
		stages[trace.StageLockWait] = clk.lap()
	}
	// The auction flag is read once under the locks (see scan).
	auction := b.cfg.Slate || b.billing.active.Load()

	// One arrivals record frames the whole window; each body is encoded right
	// after its arrival's commit — after every charge has landed and before
	// the stripe locks release — so it carries the post-arrival γ bits and
	// exactly the offers committed.
	var bp *[]byte
	var enc codec
	if b.wal != nil {
		bp = recPool.Get().(*[]byte)
		enc.buf = append((*bp)[:0], byte(RecordArrivals))
		enc.arrivalsHeader(live, &auction)
	}

	// The lowest locked stripe's arena is exclusively ours while the locks
	// are held (see scanArena's ownership rule).
	ar := &b.shards[lo].arena
	var agg scanTally
	for i := range batch {
		if results[i].Err != nil {
			continue
		}
		a := &batch[i]
		// Inside the stripe locks, so the bump is atomic with the record this
		// call logs before unlocking: the counter is recovered state.
		b.arrivals.Add(1)
		if a.Capacity > 0 {
			s0, s1 := b.stripes.Range(a.Loc.Y-maxR, a.Loc.Y+maxR)
			fl := b.gatherCandidates(ar, a.Loc, s0, s1)
			if timed {
				stages[trace.StageGather] += clk.lap()
			}
			agg.add(b.scan(ar, a, fl, auction))
			if n0 := len(offers); len(ar.cands) > 0 {
				offers = b.commit(ar, offers, auction)
				// Full-slice expression: a later arrival's append can grow past
				// this segment's length but never overwrite it.
				results[i].Offers = offers[n0:len(offers):len(offers)]
			}
		}
		if b.wal != nil {
			enc.arrivalBody(&ArrivalRecord{
				GammaMin: b.gammaMin.Load(), GammaMax: b.gammaMax.Load(),
				Customer: *a, Offers: results[i].Offers,
			})
		}
		if timed {
			stages[trace.StageScan] += clk.lap()
		}
	}
	if b.wal != nil {
		*bp = enc.buf
		b.walAppend(bp)
	}
	if timed {
		stages[trace.StageCommit] = clk.lap()
		if m != nil {
			for s, d := range stages {
				m.stages[s].ObserveShard(lo, d.Seconds())
			}
			m.foldScanTally(&agg)
		}
		if t != nil {
			t.Start, t.Duration = clk.start, clk.mark
			t.Staged, t.Stages = true, stages
			t.StripeLo, t.StripeHi = lo, hi
			t.Scan = agg.counts()
		}
	}
	return offers, live, lo, clk.mark
}
