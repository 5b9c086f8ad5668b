package broker

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"muaa/internal/geo"
	"muaa/internal/obs"
	"muaa/internal/trace"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

// batchingArrive adapts ArriveBatch to the applyTranscriptOpVia harness:
// arrivals are buffered and flushed through one ArriveBatch call per window,
// with window lengths drawn from a seeded source. flush must also be called
// on every non-arrival transcript op so batching never reorders an arrival
// past a top-up or pause it would serially precede.
type batchingArrive struct {
	b       *Broker
	rng     *rand.Rand
	pending []Arrival
	window  int
	batches int
}

func (ba *batchingArrive) add(t *testing.T, a Arrival) []Offer {
	t.Helper()
	ba.pending = append(ba.pending, a)
	if len(ba.pending) < ba.window {
		return nil
	}
	results := ba.flush(t)
	return results[len(results)-1].Offers
}

// flush submits the pending window and returns its results (empty when
// nothing is pending).
func (ba *batchingArrive) flush(t *testing.T) []BatchResult {
	t.Helper()
	if len(ba.pending) == 0 {
		return nil
	}
	results := ba.b.ArriveBatch(ba.pending)
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("batched arrival %d: %v", i, results[i].Err)
		}
	}
	ba.pending = ba.pending[:0]
	ba.batches++
	ba.window = 1 + ba.rng.Intn(7)
	return results
}

// replayTranscriptBatched renders the same transcript replayTranscript does
// but pushes arrivals through ArriveBatch in randomly sized windows. Because
// a window's offers only materialize at flush time, the arrive lines are
// buffered alongside and emitted when their batch commits — the resulting
// transcript text is in the same op order as the serial one.
func replayTranscriptBatched(t *testing.T, cfg Config, campaigns, ops int, seed, batchSeed int64) string {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs, stream, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(campaigns, ops, seed))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, c := range specs {
		id, err := b.RegisterCampaign(c.Loc, c.Radius, c.Budget, c.Tags)
		if err != nil {
			t.Fatal(err)
		}
		writeRegisterLine(&sb, id, c)
	}
	ba := &batchingArrive{b: b, rng: rand.New(rand.NewSource(batchSeed)), window: 1}
	ba.window = 1 + ba.rng.Intn(7)
	var heldOps []int // op indices of the pending arrivals, for their lines
	flush := func() {
		held := heldOps
		heldOps = heldOps[:0]
		for j, res := range ba.flush(t) {
			writeArriveLine(&sb, held[j], res.Offers)
		}
	}
	for i, op := range stream {
		if op.Kind == workload.OpArrival {
			heldOps = append(heldOps, i)
			ba.pending = append(ba.pending, arrivalOf(op))
			if len(ba.pending) >= ba.window {
				flush()
			}
			continue
		}
		flush()
		applyTranscriptOp(t, b, &sb, i, op)
	}
	flush()
	writeFinalLines(&sb, b)
	if ba.batches == 0 {
		t.Fatal("workload produced no batches")
	}
	return sb.String()
}

// TestBatchedReplayMatchesGolden is the batch path's determinism pin: the
// golden streams pushed through ArriveBatch with randomly sized windows must
// reproduce the serial golden transcripts byte-for-byte — same offers, same
// γ evolution, same final floats. This is the "replays bit-exactly" bar for
// the multi-arrival record's producer side.
func TestBatchedReplayMatchesGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{AdTypes: workload.DefaultAdTypes()}},
		{"paced", Config{AdTypes: workload.DefaultAdTypes(), Pacing: 1.25}},
		{"fixed_g", Config{AdTypes: workload.DefaultAdTypes(), G: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "replay_"+tc.name+".golden"))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			for _, batchSeed := range []int64{1, 7} {
				got := replayTranscriptBatched(t, tc.cfg, 32, 3000, 42, batchSeed)
				if got != string(want) {
					t.Fatalf("batched replay (batch seed %d) diverged from golden (%d vs %d bytes, first diff at byte %d)",
						batchSeed, len(got), len(want), firstDiff(got, string(want)))
				}
			}
		})
	}
}

// TestBatchReplayBitExact pins the multi-arrival record round trip: a durable
// broker fed batches, crashed without Close, and recovered must match —
// bit for bit — a serial durable broker crashed and recovered at the same
// point, and both must keep agreeing on traffic served after recovery.
func TestBatchReplayBitExact(t *testing.T) {
	mk := func(dir string) *Broker {
		b, err := New(Config{
			AdTypes: workload.DefaultAdTypes(), DataDir: dir, WAL: crashWAL(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serialDir, batchDir := t.TempDir(), t.TempDir()
	serial, batched := mk(serialDir), mk(batchDir)

	specs, stream, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(16, 600, 5))
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, serial, specs)
	registerLoad(t, batched, specs)
	var window []Arrival
	flush := func() {
		if len(window) == 0 {
			return
		}
		for _, res := range batched.ArriveBatch(window) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		window = window[:0]
	}
	for _, op := range stream {
		switch op.Kind {
		case workload.OpArrival:
			a := arrivalOf(op)
			if _, err := serial.Arrive(a); err != nil {
				t.Fatal(err)
			}
			window = append(window, a)
			if len(window) >= 32 {
				flush()
			}
		case workload.OpTopUp:
			flush()
			if err := serial.TopUp(op.Campaign, op.Amount); err != nil {
				t.Fatal(err)
			}
			if err := batched.TopUp(op.Campaign, op.Amount); err != nil {
				t.Fatal(err)
			}
		case workload.OpPause:
			flush()
			if err := serial.SetPaused(op.Campaign, op.Paused); err != nil {
				t.Fatal(err)
			}
			if err := batched.SetPaused(op.Campaign, op.Paused); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush()
	flushWAL(t, serial)
	flushWAL(t, batched)

	// The batched WAL must actually contain batch records — otherwise this test
	// is vacuously comparing two serial logs.
	if n := countBatchRecords(t, batchDir); n == 0 {
		t.Fatal("batched broker's WAL contains no batch records")
	}

	// Crash both (no Close) and recover.
	serial2, batched2 := mk(serialDir), mk(batchDir)
	defer serial2.Close()
	defer batched2.Close()
	if a, b := serial2.Stats(), batched2.Stats(); !reflect.DeepEqual(a, b) {
		t.Fatalf("recovered stats diverged:\nserial  %+v\nbatched %+v", a, b)
	}
	sc, bc := serial2.Campaigns(), batched2.Campaigns()
	if !reflect.DeepEqual(sc, bc) {
		t.Fatalf("recovered campaign states diverged:\nserial  %+v\nbatched %+v", sc, bc)
	}

	// Post-recovery traffic must agree too: recovery restored the same γ
	// estimator state on both sides.
	a := Arrival{Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 3, ViewProb: 0.7,
		Interests: []float64{1, 0.5, 1, 0, 0.5, 1, 0, 1}, Hour: 15}
	so, err := serial2.Arrive(a)
	if err != nil {
		t.Fatal(err)
	}
	results := batched2.ArriveBatch([]Arrival{a})
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if len(so) != len(results[0].Offers) || (len(so) > 0 && !reflect.DeepEqual(so, results[0].Offers)) {
		t.Fatalf("post-recovery offers diverged:\nserial  %+v\nbatched %+v", so, results[0].Offers)
	}
}

// countBatchRecords decodes a broker data directory's WAL and counts
// RecordArrivals frames that carry more than one arrival.
func countBatchRecords(t *testing.T, dir string) int {
	t.Helper()
	v, err := wal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, rec := range v.Records {
		d, err := DecodeRecord(rec)
		if err != nil {
			t.Fatalf("undecodable WAL record: %v", err)
		}
		if d.Kind == RecordArrivals && len(d.Arrivals) > 1 {
			n++
		}
	}
	return n
}

// TestBatchMixedValidity pins partial-failure semantics: invalid elements
// are rejected in place with the serial path's error text while the valid
// remainder of the batch is served, counted, and logged.
func TestBatchMixedValidity(t *testing.T) {
	reg := obs.NewRegistry()
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 100, []float64{1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	good := Arrival{Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 2, ViewProb: 0.8,
		Interests: []float64{1, 0.5, 1}, Hour: 12}
	batch := []Arrival{
		good,
		{Capacity: -1},
		good,
		{Capacity: 1, ViewProb: 1.5},
	}
	results := b.ArriveBatch(batch)
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("valid arrivals rejected: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "capacity") {
		t.Fatalf("bad capacity not rejected: %v", results[1].Err)
	}
	if results[3].Err == nil || !strings.Contains(results[3].Err.Error(), "view probability") {
		t.Fatalf("bad view probability not rejected: %v", results[3].Err)
	}
	if len(results[0].Offers) == 0 {
		t.Fatal("in-range valid arrival got no offers")
	}
	if st := b.Stats(); st.Arrivals != 2 {
		t.Fatalf("arrivals counter = %d, want 2 (rejected elements must not count)", st.Arrivals)
	}
}

// TestBatchEdgeCases covers the degenerate windows: empty, all-invalid, and
// all-zero-capacity batches must leave the broker fully serviceable.
func TestBatchEdgeCases(t *testing.T) {
	b, err := New(Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 100, []float64{1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if results := b.ArriveBatch(nil); len(results) != 0 {
		t.Fatalf("nil batch returned %d results", len(results))
	}
	if results := b.ArriveBatch([]Arrival{{Capacity: -1}, {ViewProb: -2, Capacity: 1}}); len(results) != 2 ||
		results[0].Err == nil || results[1].Err == nil {
		t.Fatalf("all-invalid batch mishandled: %+v", results)
	}
	zero := []Arrival{
		{Loc: geo.Point{X: 0.2, Y: 0.2}, ViewProb: 0.5},
		{Loc: geo.Point{X: 0.8, Y: 0.8}, ViewProb: 0.5},
	}
	for i, res := range b.ArriveBatch(zero) {
		if res.Err != nil || len(res.Offers) != 0 {
			t.Fatalf("zero-capacity element %d: %+v", i, res)
		}
	}
	if st := b.Stats(); st.Arrivals != 2 {
		t.Fatalf("zero-capacity batch counted %d arrivals, want 2", st.Arrivals)
	}
	// Broker still serves serial traffic afterwards (locks released).
	if _, err := b.Arrive(Arrival{Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 1,
		ViewProb: 0.5, Interests: []float64{1, 0, 1}, Hour: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestArriveBatchTraced pins the batch trace shape: root named by Batch > 0,
// one outcome per submitted arrival in order, summed capacity/offers, and
// stage spans that partition the root.
func TestArriveBatchTraced(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderOptions{})
	b := tracedBroker(t, rec, nil)
	batch := []Arrival{
		{Loc: geo.Point{X: 0.3, Y: 0.3}, Capacity: 2, ViewProb: 0.8,
			Interests: []float64{1, 0.5, 1}, Hour: 12},
		{Capacity: -5},
		{Loc: geo.Point{X: 0.99, Y: 0.01}, Capacity: 1, ViewProb: 0.5,
			Interests: []float64{1, 0, 1}, Hour: 1},
	}
	results := b.ArriveBatchTraced(batch, newTraceReq())
	traces := rec.Snapshot(trace.Filter{})
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1 (one root per batch)", len(traces))
	}
	tr := traces[0]
	if tr.Batch != 3 {
		t.Fatalf("trace batch = %d, want 3", tr.Batch)
	}
	if len(tr.BatchOutcomes) != 3 {
		t.Fatalf("trace carries %d outcomes, want 3", len(tr.BatchOutcomes))
	}
	if tr.BatchOutcomes[0].Outcome != trace.OutcomeOffered ||
		tr.BatchOutcomes[0].Offers != len(results[0].Offers) {
		t.Fatalf("outcome[0] = %+v", tr.BatchOutcomes[0])
	}
	if tr.BatchOutcomes[1].Outcome != trace.OutcomeError || tr.BatchOutcomes[1].Error == "" {
		t.Fatalf("outcome[1] = %+v", tr.BatchOutcomes[1])
	}
	if tr.BatchOutcomes[2].Outcome != trace.OutcomeNoOffers {
		t.Fatalf("outcome[2] = %+v", tr.BatchOutcomes[2])
	}
	if !tr.Anomalous {
		t.Fatal("batch with a rejected element not marked anomalous")
	}
	if tr.Offers != len(results[0].Offers) {
		t.Fatalf("trace offers = %d, want %d", tr.Offers, len(results[0].Offers))
	}
	if !tr.Staged {
		t.Fatal("batch trace missing stage spans")
	}
	var sum int64
	for i := 0; i < trace.NumStages; i++ {
		sum += int64(tr.Stages[i])
	}
	if sum != int64(tr.Duration) {
		t.Fatalf("stage spans sum to %d, root is %d", sum, int64(tr.Duration))
	}
	// The window served an arrival, so its grid probes took time: gather is a
	// span of its own on a batch too, not folded into scan.
	if tr.Stages[trace.StageGather] <= 0 || tr.Stages[trace.StageScan] <= 0 {
		t.Fatalf("batch stage spans %v: gather and scan must both be positive", tr.Stages)
	}
	js, err := tr.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"name":"arrival_batch"`) {
		t.Fatalf("batch trace JSON missing arrival_batch root: %s", js)
	}
	if !strings.Contains(string(js), `"arrivals":[`) {
		t.Fatalf("batch trace JSON missing per-arrival outcomes: %s", js)
	}

	// Recorder absent → plain ArriveBatch semantics, nothing recorded.
	plain, err := New(Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		t.Fatal(err)
	}
	if res := plain.ArriveBatchTraced([]Arrival{{ViewProb: 0.5}}, newTraceReq()); len(res) != 1 {
		t.Fatalf("untraced batch returned %d results", len(res))
	}

	t.Run("dense-chunks", arriveBatchTracedDense)
}

// arriveBatchTracedDense holds the stage accounting at the `dense` shape:
// ≈260 candidates per arrival in windows of 64, so every window gathers
// several chunks and laps the clock once per phase of each. The spans must
// still partition the root exactly, and each stage histogram must take one
// observation per call, not one per chunk.
func arriveBatchTracedDense(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderOptions{})
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Metrics: obs.NewRegistry(), Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := denseMarket(t, b, false)[:256]
	const window = 64
	calls := 0
	for at := 0; at < len(arrivals); at += window {
		req := newTraceReq()
		b.ArriveBatchTraced(arrivals[at:at+window], req)
		calls++
		tr := rec.Snapshot(trace.Filter{Limit: 1})[0]
		if tr.TraceID != req.TraceID {
			t.Fatalf("window %d: newest trace is not this call's", calls)
		}
		if tr.Scan.Gathered <= chunkIDs {
			t.Fatalf("window %d gathered %d ids, want more than one chunk (%d)", calls, tr.Scan.Gathered, chunkIDs)
		}
		var sum time.Duration
		for _, d := range tr.Stages {
			sum += d
		}
		if sum != tr.Duration {
			t.Fatalf("window %d: stage spans %v sum to %v, root is %v", calls, tr.Stages, sum, tr.Duration)
		}
		if tr.Stages[trace.StageGather] <= 0 || tr.Stages[trace.StageScan] <= 0 {
			t.Fatalf("window %d: stage spans %v: gather and scan must both be positive", calls, tr.Stages)
		}
	}
	for s, stage := range trace.StageNames {
		if got := b.metrics.stages[s].Snapshot().Count; got != uint64(calls) {
			t.Errorf("stage %q observed %d times over %d calls, want one per call", stage, got, calls)
		}
	}
}

// serveDefaults is muaa-serve's broker configuration: a live audit over the
// last 4096 arrivals, funnel attribution and a metrics registry. The
// recompute runs on its own goroutine, hourly here so that it stays out of
// the allocation counts.
func serveDefaults() Config {
	return Config{
		AdTypes: workload.DefaultAdTypes(), AuditWindow: 4096, AuditEvery: time.Hour,
		Funnel: FunnelConfig{Enabled: true}, Metrics: obs.NewRegistry(),
	}
}

// TestArriveAppendZeroAllocs is the tentpole's allocation bar: after warm-up
// a serial arrival through ArriveAppend must not allocate at all — the arena
// owns every scratch buffer and the caller owns the offer slice. The durable
// rows hold the same bar with the WAL on (sync none): the arrivals record is
// encoded into a pooled buffer and copied into the log's. The serve rows run
// muaa-serve's defaults, warmed until the audit ring has wrapped: a capture
// then refills the slot it overwrites.
func TestArriveAppendZeroAllocs(t *testing.T) {
	for _, serve := range []bool{false, true} {
		for _, durable := range []bool{false, true} {
			name := fmt.Sprintf("durable=%t", durable)
			cfg := Config{AdTypes: workload.DefaultAdTypes()}
			if serve {
				name, cfg = "serve,"+name, serveDefaults()
			}
			t.Run(name, func(t *testing.T) {
				if durable {
					cfg.DataDir = t.TempDir()
					cfg.WAL = crashWAL()
				}
				b, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer b.Close()
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
				// Warm up: grow the arena, the γ estimator and the record pool
				// to steady state, and wrap the audit ring.
				for i := 0; i < 16+cfg.AuditWindow; i++ {
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
					t.Fatalf("serial arrival allocates %v times per op, want 0", allocs)
				}
			})
		}
	}
}

// TestBatchDurableSyncEvery round-trips a batch record through a clean Close
// and recovery.
func TestBatchDurableSyncEvery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		AdTypes: workload.DefaultAdTypes(), DataDir: dir,
		WAL: crashWAL(),
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 100, []float64{1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	batch := make([]Arrival, 10)
	for i := range batch {
		batch[i] = Arrival{Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 1, ViewProb: 0.6,
			Interests: []float64{1, 0.2, 1}, Hour: float64(i)}
	}
	for _, res := range b.ArriveBatch(batch) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	want := b.Stats()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if got := b2.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered stats diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSerialIsBatchOfOne pins that single submission and a window of one are
// the same thing: twin brokers take one seeded mixed stream — valid,
// zero-capacity and invalid arrivals over eight stripes, with top-ups, pauses
// and conversions interleaved — one through Arrive / ArriveAppend /
// ArriveTraced in rotation, the other through ArriveBatch([]Arrival{a}).
// After every op the offers, error text, Stats and γ bits must be equal; at
// the end a durable pair's WAL segments must be byte-identical and recover to
// the same snapshot payload. Runs in memory and on disk, over a fixed-cost
// and a billed fleet, with telemetry off and on.
func TestSerialIsBatchOfOne(t *testing.T) {
	const campaigns, ops, seed = 24, 900, 17
	for _, durable := range []bool{false, true} {
		for _, billed := range []bool{false, true} {
			for _, telemetry := range []bool{false, true} {
				name := fmt.Sprintf("durable=%t/billed=%t/telemetry=%t", durable, billed, telemetry)
				t.Run(name, func(t *testing.T) {
					load := workload.DefaultBrokerLoadConfig(campaigns, ops, seed)
					if billed {
						load = workload.BilledBrokerLoadConfig(campaigns, ops, seed)
					}
					serialIsBatchOfOne(t, load, durable, telemetry)
				})
			}
		}
	}
	t.Run("dense-chunks", serialIsBatchDense)
}

// serialIsBatchDense holds the same bar where a window is many gather
// chunks: the `dense` market (≈260 candidates per arrival) in windows of 64,
// each mixing in zero-capacity and invalid arrivals, against the same
// arrivals submitted one by one. Results, Stats, γ bits and the funnel's
// gathered count must match after every window, Campaigns and every
// campaign's funnel row at the end; and every record of the windowed
// WAL must be byte-equal to the serial WAL's records it spans — a
// registration as is, an arrivals record as the serial bodies framed as
// one window.
func serialIsBatchDense(t *testing.T) {
	mk := func(dir string) *Broker {
		b, err := New(Config{
			AdTypes: workload.DefaultAdTypes(), DataDir: dir, WAL: crashWAL(),
			Funnel: FunnelConfig{Enabled: true}, Metrics: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serialDir, batchDir := t.TempDir(), t.TempDir()
	serial, batched := mk(serialDir), mk(batchDir)
	arrivals := denseMarket(t, serial, false)[:512]
	denseMarket(t, batched, false)
	for i := range arrivals {
		switch i % 11 {
		case 3:
			arrivals[i].Capacity = 0
		case 6:
			arrivals[i].Capacity = -1
		}
	}
	const window = 64
	for at := 0; at < len(arrivals); at += window {
		w := arrivals[at : at+window]
		g0 := batched.funnel.gathered.Load()
		res := batched.ArriveBatch(w)
		if g := batched.funnel.gathered.Load() - g0; g <= chunkIDs {
			t.Fatalf("window at %d gathered %d ids, want more than one chunk (%d)", at, g, chunkIDs)
		}
		for i, a := range w {
			got, err := serial.Arrive(a)
			if (err == nil) != (res[i].Err == nil) || (err != nil && err.Error() != res[i].Err.Error()) {
				t.Fatalf("arrival %d: errors differ: serial %v, window %v", at+i, err, res[i].Err)
			}
			if !reflect.DeepEqual(got, res[i].Offers) && len(got)+len(res[i].Offers) > 0 {
				t.Fatalf("arrival %d: offers differ:\nserial %+v\nwindow %+v", at+i, got, res[i].Offers)
			}
		}
		if s, b := serial.Stats(), batched.Stats(); s != b {
			t.Fatalf("window at %d: stats differ:\nserial %+v\nwindow %+v", at, s, b)
		}
		if serial.gammaMin.bits.Load() != batched.gammaMin.bits.Load() ||
			serial.gammaMax.bits.Load() != batched.gammaMax.bits.Load() {
			t.Fatalf("window at %d: γ bits differ", at)
		}
		if s, b := serial.funnel.gathered.Load(), batched.funnel.gathered.Load(); s != b {
			t.Fatalf("window at %d: funnels gathered %d vs %d candidates", at, s, b)
		}
	}
	if s, b := serial.Campaigns(), batched.Campaigns(); !reflect.DeepEqual(s, b) {
		t.Fatal("final campaign states differ")
	}
	sf, bf := serial.dir.Load(), batched.dir.Load()
	for id := range sf.campaigns {
		if s, b := sf.funnel(int32(id)), bf.funnel(int32(id)); *s != *b {
			t.Fatalf("campaign %d: funnel rows differ: serial %v, window %v", id, *s, *b)
		}
	}

	flushWAL(t, serial)
	flushWAL(t, batched)
	sv, err := wal.ReadDir(serialDir)
	if err != nil {
		t.Fatal(err)
	}
	bv, err := wal.ReadDir(batchDir)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(rec []byte) DecodedRecord {
		d, err := DecodeRecord(rec)
		if err != nil {
			t.Fatalf("undecodable WAL record: %v", err)
		}
		return d
	}
	k := 0 // the next serial record
	for i, rec := range bv.Records {
		want := rec[:0]
		if d := decode(rec); d.Kind != RecordArrivals {
			if k < len(sv.Records) {
				want = sv.Records[k]
				k++
			}
		} else {
			framed := DecodedRecord{Kind: RecordArrivals}
			for first := k; len(framed.Arrivals) < len(d.Arrivals) && k < len(sv.Records); k++ {
				sd := decode(sv.Records[k])
				if sd.Kind != RecordArrivals || k > first && sd.Auction != framed.Auction {
					t.Fatalf("windowed record %d: serial record %d is not an arrival of the same window", i, k)
				}
				framed.Auction = sd.Auction
				framed.Arrivals = append(framed.Arrivals, sd.Arrivals...)
			}
			var c codec
			c.record(&framed)
			want = c.buf
		}
		if string(rec) != string(want) {
			t.Fatalf("windowed record %d: %d vs %d bytes, first difference at byte %d",
				i, len(rec), len(want), firstDiff(string(rec), string(want)))
		}
	}
	if k != len(sv.Records) {
		t.Fatalf("windowed WAL spans %d of the serial WAL's %d records", k, len(sv.Records))
	}
}

func serialIsBatchOfOne(t *testing.T, load workload.BrokerLoadConfig, durable, telemetry bool) {
	specs, stream, err := workload.BrokerLoad(load)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(dir string) *Broker {
		cfg := Config{AdTypes: workload.DefaultAdTypes(), Shards: 8}
		if durable {
			cfg.DataDir, cfg.WAL = dir, crashWAL()
		}
		if telemetry {
			cfg.Metrics = obs.NewRegistry()
			cfg.Tracer = trace.NewRecorder(trace.RecorderOptions{Capacity: 64})
		}
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serialDir, batchDir := t.TempDir(), t.TempDir()
	serial, batched := mk(serialDir), mk(batchDir)
	registerLoad(t, serial, specs)
	registerLoad(t, batched, specs)

	sentinel := Offer{Campaign: -7}
	var buf []Offer
	var open []uint64
	arrivals, served, rejected, counted := 0, 0, 0, 0
	serialFeed := &opFeed{tb: t, b: serial}
	batchedFeed := &opFeed{tb: t, b: batched}
	for i, op := range stream {
		switch op.Kind {
		case workload.OpArrival:
			a := arrivalOf(op)
			switch arrivals % 11 {
			case 3:
				a.Capacity = 0
			case 6:
				a.Capacity = -1
			case 9:
				a.ViewProb = 2
			}
			var got []Offer
			var gotErr error
			switch arrivals % 3 {
			case 0:
				got, gotErr = serial.Arrive(a)
			case 1:
				// A caller-owned buffer with something already in it: the
				// prefix must survive and the offers follow it.
				buf, gotErr = serial.ArriveAppend(append(buf[:0], sentinel), a)
				if len(buf) == 0 || buf[0] != sentinel {
					t.Fatalf("op %d: ArriveAppend clobbered its buffer's prefix: %+v", i, buf)
				}
				got = buf[1:]
			case 2:
				got, gotErr = serial.ArriveTraced(a, newTraceReq())
			}
			arrivals++
			res := batched.ArriveBatch([]Arrival{a})
			if len(res) != 1 {
				t.Fatalf("op %d: window of one answered %d results", i, len(res))
			}
			if (gotErr == nil) != (res[0].Err == nil) || (gotErr != nil && gotErr.Error() != res[0].Err.Error()) {
				t.Fatalf("op %d: errors differ: serial %v, window of one %v", i, gotErr, res[0].Err)
			}
			if len(got) != len(res[0].Offers) || (len(got) > 0 && !reflect.DeepEqual(got, res[0].Offers)) {
				t.Fatalf("op %d: offers differ:\nserial        %+v\nwindow of one %+v", i, got, res[0].Offers)
			}
			switch {
			case gotErr != nil:
				rejected++
			case a.Capacity == 0:
				counted++
			case len(got) > 0:
				served++
			}
			for _, o := range got {
				if o.ID != 0 {
					open = append(open, o.ID)
				}
			}
		case workload.OpConvert:
			if len(open) == 0 {
				continue
			}
			k := int(op.Pick % uint64(len(open)))
			id := open[k]
			open = append(open[:k], open[k+1:]...)
			sc, serr := serial.Convert(id, "")
			bc, berr := batched.Convert(id, "")
			if sc != bc || (serr == nil) != (berr == nil) {
				t.Fatalf("op %d: conversions differ: %+v/%v vs %+v/%v", i, sc, serr, bc, berr)
			}
		default:
			serialFeed.apply(op)
			batchedFeed.apply(op)
		}
		if s, b := serial.Stats(), batched.Stats(); s != b {
			t.Fatalf("op %d: stats differ:\nserial        %+v\nwindow of one %+v", i, s, b)
		}
		if serial.gammaMin.bits.Load() != batched.gammaMin.bits.Load() ||
			serial.gammaMax.bits.Load() != batched.gammaMax.bits.Load() {
			t.Fatalf("op %d: γ bits differ", i)
		}
	}
	if served == 0 || rejected == 0 || counted == 0 {
		t.Fatalf("stream is not mixed: %d served, %d rejected, %d zero-capacity", served, rejected, counted)
	}
	if s, b := serial.Campaigns(), batched.Campaigns(); !reflect.DeepEqual(s, b) {
		t.Fatal("final campaign states differ")
	}
	if !durable {
		return
	}

	// Crash both (no Close): the logs must be the same bytes and recover to
	// the same state.
	flushWAL(t, serial)
	flushWAL(t, batched)
	segs, err := filepath.Glob(filepath.Join(serialDir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("serial twin left no WAL segments (err %v)", err)
	}
	for _, seg := range segs {
		want, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(batchDir, filepath.Base(seg)))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: %d vs %d bytes, first difference at byte %d",
				filepath.Base(seg), len(want), len(got), firstDiff(string(got), string(want)))
		}
	}
	serial2, batched2 := mk(serialDir), mk(batchDir)
	defer serial2.Close()
	defer batched2.Close()
	if s, b := serial2.Stats(), batched2.Stats(); s != b || s != serial.Stats() {
		t.Fatalf("recovered stats differ:\nserial        %+v\nwindow of one %+v\nlive          %+v", s, b, serial.Stats())
	}
	if s, b := serial2.encodeSnapshot(), batched2.encodeSnapshot(); string(s) != string(b) {
		t.Fatalf("recovered snapshot payloads differ (%d vs %d bytes), first at byte %d",
			len(s), len(b), firstDiff(string(s), string(b)))
	}
}
