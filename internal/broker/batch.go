package broker

// Batched arrival ingestion. ArriveBatch is the broker half of the paper's
// micro-batching setting (core.OnlineBatch models it offline): a client that
// tolerates a bounded answer delay submits a window of arrivals at once, and
// the broker amortizes the per-arrival fixed costs — stripe-lock
// acquisition, clock anchoring, WAL record framing and group commit — over
// the whole window while leaving the decision sequence exactly what serial
// submission would have produced.
//
// Equivalence contract: arrivals are processed strictly in submission order
// with the same gather/scan/commit core serial Arrive uses, so for any split
// of a stream into batches, Stats, per-campaign spend, every committed offer
// and the recovered (WAL-replayed) state are bit-identical to the serial
// history (TestBatchMatchesSerial*, TestBatchReplayBitExact). Stripe sorting
// happens only in lock acquisition — the covering stripe interval is locked
// once, ascending, before the first arrival is examined — never in
// processing order.

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

// ArriveBatch processes a window of arrivals as one unit: the covering
// stripe interval is locked once, one clock anchor times the whole batch,
// every arrival is processed in submission order by the serial pipeline's
// own passes, and a durable broker appends a single arrivals record framing
// all of them. Results are per arrival, index-aligned with batch. Offer
// slices in the results alias one shared buffer owned by the caller.
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

func (b *Broker) arriveBatchTraced(batch []Arrival, req *trace.Request, sc *batchScratch) []BatchResult {
	if req == nil || b.tracer == nil {
		results := b.arriveBatch(batch, nil, sc)
		b.captureBatch(batch, results)
		return results
	}
	t := &trace.Trace{
		TraceID:      req.TraceID,
		SpanID:       req.SpanID,
		ParentSpanID: req.ParentSpanID,
	}
	results := b.arriveBatch(batch, t, sc)
	if t.Start.IsZero() {
		// Nothing reached the timed pipeline (empty or all-invalid batch);
		// stamp it so the recorder can still order it.
		t.Start = time.Now()
	}
	t.Batch = len(batch)
	t.BatchOutcomes = make([]trace.BatchOutcome, len(results))
	totalOffers, errs := 0, 0
	for i := range results {
		o := &t.BatchOutcomes[i]
		switch {
		case results[i].Err != nil:
			o.Outcome = trace.OutcomeError
			o.Error = results[i].Err.Error()
			errs++
		case len(results[i].Offers) > 0:
			o.Outcome = trace.OutcomeOffered
			o.Offers = len(results[i].Offers)
			totalOffers += len(results[i].Offers)
		default:
			o.Outcome = trace.OutcomeNoOffers
		}
		t.Capacity += batch[i].Capacity
	}
	t.Offers = totalOffers
	switch {
	case errs == len(results) && len(results) > 0:
		t.Outcome = trace.OutcomeError
	case totalOffers > 0:
		t.Outcome = trace.OutcomeOffered
	default:
		t.Outcome = trace.OutcomeNoOffers
	}
	if errs > 0 || t.Scan.Exhausted > 0 {
		t.Anomalous = true
	}
	b.tracer.Record(t)
	b.captureBatch(batch, results)
	return results
}

// captureBatch feeds the batch's accepted arrivals to the live-audit window
// in submission order, exactly as serial Arrive does after its locks
// release.
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

// arriveBatch is the batch pipeline. Stage accounting differs from serial
// arrive by design — one clock anchor per batch: lock_wait times the single
// interval acquisition, scan times the whole per-arrival processing loop
// (gather, scan and charge interleaved per arrival), commit times the one
// WAL batch append. Gather is reported as zero.
func (b *Broker) arriveBatch(batch []Arrival, t *trace.Trace, sc *batchScratch) []BatchResult {
	m := b.metrics
	results := slices.Grow(sc.results[:0], len(batch))[:len(batch)]
	clear(results)
	sc.results = results
	live := 0
	for i := range batch {
		if err := validateArrival(&batch[i]); err != nil {
			if m != nil {
				m.arrivalErrors.Inc()
			}
			results[i].Err = err
			continue
		}
		live++
	}
	if m != nil {
		m.batchSize.Observe(float64(live))
	}
	if live == 0 {
		return results
	}

	// The covering stripe interval: the union of every accepted arrival's
	// own stripe range (its query disk for a serving arrival, its home
	// stripe for a zero-capacity count-only one). Contiguous by
	// construction — stripe ranges are intervals — and locked once,
	// ascending, the global lock order.
	maxR := b.maxRadius.Load()
	lo, hi := len(b.shards), -1
	for i := range batch {
		if results[i].Err != nil {
			continue
		}
		a := &batch[i]
		var s0, s1 int
		if a.Capacity == 0 {
			s0 = b.stripes.Of(a.Loc)
			s1 = s0
		} else {
			s0, s1 = b.stripes.Range(a.Loc.Y-maxR, a.Loc.Y+maxR)
		}
		if s0 < lo {
			lo = s0
		}
		if s1 > hi {
			hi = s1
		}
	}

	timed := m != nil || t != nil
	var tStart time.Time
	var elStage time.Duration
	if timed {
		tStart = time.Now()
	}
	b.lockStripes(lo, hi, m)
	defer b.unlockStripes(lo, hi)
	if timed {
		d := time.Since(tStart)
		elStage = d
		if m != nil {
			m.stageLock.ObserveShard(lo, d.Seconds())
		}
		if t != nil {
			t.Start = tStart
			t.Staged = true
			t.StripeLo, t.StripeHi = lo, hi
			t.Stages[trace.StageLockWait] = d
		}
	}
	// The auction flag is read once under the locks (see scan).
	auction := b.cfg.Slate || b.billing.active.Load()

	// One arrivals record frames the whole batch; each body is encoded right
	// after its arrival's commit so it carries the same γ bits the serial
	// record would.
	var bp *[]byte
	var buf []byte
	if b.wal != nil {
		bp = recPool.Get().(*[]byte)
		buf = appendArrivalsHeader((*bp)[:0], live, auction)
	}

	ar := &b.shards[lo].arena
	offers := sc.offers[:0]
	var agg scanTally
	for i := range batch {
		if results[i].Err != nil {
			continue
		}
		a := &batch[i]
		b.arrivals.Add(1)
		if a.Capacity == 0 {
			if b.wal != nil {
				buf = b.appendArrivalBody(buf, a, nil)
			}
			continue
		}
		s0, s1 := b.stripes.Range(a.Loc.Y-maxR, a.Loc.Y+maxR)
		dir := b.gatherCandidates(ar, a.Loc, s0, s1)
		agg.add(b.scan(ar, a, dir, auction))
		n0 := len(offers)
		if len(ar.cands) > 0 {
			offers = b.commit(ar, offers, auction)
			// Full-slice expression: a later arrival's append can grow past
			// this segment's length but never overwrite it.
			results[i].Offers = offers[n0:len(offers):len(offers)]
		}
		if b.wal != nil {
			buf = b.appendArrivalBody(buf, a, results[i].Offers)
		}
	}
	sc.offers = offers
	if timed {
		el := time.Since(tStart)
		d := el - elStage
		elStage = el
		if m != nil {
			m.stageScan.ObserveShard(lo, d.Seconds())
			m.foldScanTally(&agg)
		}
		if t != nil {
			t.Stages[trace.StageScan] = d
			t.Scan = agg.counts()
		}
	}
	if b.wal != nil {
		*bp = buf
		b.walAppend(bp)
	}
	if timed {
		el := time.Since(tStart)
		d := el - elStage
		if m != nil {
			m.stageCommit.ObserveShard(lo, d.Seconds())
			m.batchSeconds.Observe(el.Seconds())
		}
		if t != nil {
			t.Stages[trace.StageCommit] = d
			t.Duration = el
		}
	}
	return results
}
