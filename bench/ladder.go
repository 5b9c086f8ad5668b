package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"muaa/internal/broker"
	"muaa/internal/geo"
	"muaa/internal/knapsack"
	"muaa/internal/obs"
	"muaa/internal/trace"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

// The ladder prices each layer of the serving stack in this process: a row
// of arms, every one a complete broker fed the workload's own requests in
// lock step, each adding one layer through its public entry point to the
// arm before it. A rung's price is the difference of adjacent arm medians,
// in ns per arrival. Nothing here touches the server child.

// arm is one rung's measuring stick.
type arm struct {
	name string
	// serve handles one request the way this arm's layer stack would.
	serve func(r *request) error
	close func()
	// perRound is ns per arrival, one value per measured round.
	perRound []float64
	ns       int64 // accumulator for the round in progress
}

// armReport is what results.json keeps per arm.
type armReport struct {
	Name     string    `json:"name"`
	MedianNs float64   `json:"median_ns_per_arrival"`
	MADNs    float64   `json:"mad_ns_per_arrival"`
	Rounds   []float64 `json:"rounds_ns_per_arrival"`
}

type ladderReport struct {
	Arms          []armReport        `json:"arms"`
	Rungs         map[string]float64 `json:"rungs"`
	Rounds        int                `json:"rounds"`
	BlockRequests int                `json:"block_requests"`
}

func newBroker(cfg broker.Config, fleet []workload.BrokerCampaign) (*broker.Broker, error) {
	cfg.AdTypes = workload.DefaultAdTypes()
	b, err := broker.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, c := range fleet {
		if _, err := b.RegisterCampaignSpec(campaignSpec(c)); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// kernelArm calls the broker's Go API directly, as broker.API does after
// decoding. traced selects the *Traced entry points.
func kernelArm(name string, b *broker.Broker, traced bool) *arm {
	var dst []broker.Offer
	var sink int // defeats dead-code elimination of the reads
	return &arm{name: name, close: func() { b.Close() }, serve: func(r *request) error {
		var err error
		switch r.kind {
		case opArrival:
			if traced {
				req := trace.StartRequest("")
				dst, err = b.ArriveTraced(r.arrivals[0], &req)
			} else {
				dst, err = b.ArriveAppend(dst[:0], r.arrivals[0])
			}
		case opBatch:
			var res []broker.BatchResult
			if traced {
				req := trace.StartRequest("")
				res = b.ArriveBatchTraced(r.arrivals, &req)
			} else {
				res = b.ArriveBatch(r.arrivals)
			}
			sink += len(res)
		case opTopUp:
			err = b.TopUp(r.op.Campaign, r.op.Amount)
		case opPause:
			err = b.SetPaused(r.op.Campaign, r.op.Paused)
		case opStats:
			sink += int(b.Stats().Arrivals)
		case opCampaign:
			_, err = b.CampaignState(r.op.Campaign)
		}
		return err
	}}
}

// handlerArm serves the request through an http.Handler on a recorder: the
// JSON decode and encode without a socket. It counts the bytes both ways.
func handlerArm(name string, h http.Handler, closeFn func(), reqBytes, respBytes *int64) *arm {
	return &arm{name: name, close: closeFn, serve: func(r *request) error {
		hr, err := http.NewRequest(r.method, r.path, bytes.NewReader(r.body))
		if err != nil {
			return err
		}
		if r.method == "POST" {
			hr.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, hr)
		if rec.Code != 200 {
			return fmt.Errorf("%s %s: status %d: %s", r.method, r.path, rec.Code, rec.Body.Bytes())
		}
		*reqBytes += int64(len(r.body))
		*respBytes += int64(rec.Body.Len())
		return nil
	}}
}

// socketArm puts the handler behind a real http.Server on loopback, in this
// process, and talks to it over one keep-alive connection.
func socketArm(name string, h http.Handler, closeFn func()) (*arm, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan struct{})
	go func() {
		srv.Serve(ln) // returns ErrServerClosed on Close
		close(served)
	}()
	c, err := dial(ln.Addr().String())
	if err != nil {
		srv.Close()
		<-served
		return nil, err
	}
	return &arm{name: name, serve: func(r *request) error {
		status, body, err := c.do(r, "")
		if err == nil && status != 200 {
			err = fmt.Errorf("%s %s: status %d: %s", r.method, r.path, status, body)
		}
		return err
	}, close: func() {
		c.close()
		srv.Close()
		<-served
		closeFn()
	}}, nil
}

// scrapeRegistry reads an in-process registry through its own exposition
// handler.
func scrapeRegistry(reg *obs.Registry) (scrape, error) {
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return parseScrape(rec.Body.Bytes())
}

// solverCost times knapsack.SlotSolver alone — Reset, one class per admitted
// candidate with one item per ad type, Solve at the arrival's capacity — at
// the class count the broker reported, and returns ns per arrival (median
// of ladderRounds passes over the request cycle). Item profits are seeded
// noise: the hull and sort work depend on their order, not their meaning.
func solverCost(classesPerArrival float64, reqs []request) float64 {
	var solver knapsack.SlotSolver
	adTypes := workload.DefaultAdTypes()
	rng := rand.New(rand.NewSource(1))
	noise := make([]float64, 4099) // drawn before the clock starts; a prime length so classes do not line up
	for i := range noise {
		noise[i] = rng.Float64()
	}
	whole, frac := int(classesPerArrival), classesPerArrival-float64(int(classesPerArrival))
	var per []float64
	for pass, at := 0, 0; pass < ladderRounds; pass++ {
		arrivals := 0
		start := time.Now()
		for _, r := range reqs {
			for _, a := range r.arrivals {
				n := whole
				if at++; noise[at%len(noise)] < frac {
					n++
				}
				solver.Reset()
				for c := 0; c < n; c++ {
					solver.Begin()
					for _, ad := range adTypes {
						at++
						solver.Item(ad.Cost, ad.Effect*noise[at%len(noise)])
					}
				}
				solver.Solve(a.Capacity)
				arrivals++
			}
		}
		per = append(per, float64(time.Since(start))/float64(arrivals))
	}
	return median(per)
}

// ladderRounds is the fewest measured rounds; more run while the time
// budget lasts.
const (
	ladderRounds    = 5
	ladderMaxRounds = 15
)

// runLadder builds the arms for l, feeds them blocks of the request cycle
// in lock step, and returns the per-layer prices. tmp holds the WAL arms'
// data directories.
func runLadder(l *load, tmp string, budget time.Duration, spans *spanLog, parent uint64) (map[string]float64, *ladderReport, error) {
	s := l.spec
	// A block is 64 arrivals' worth of requests, and at least one request.
	blockReqs := 1
	if s.batch <= 1 {
		blockReqs = 64
	}
	blocksPerRound := 16
	if s.billed {
		blocksPerRound = 4 // a dense block is ≈10 ms per arm
	}

	var arms []*arm
	defer func() {
		for _, a := range arms {
			a.close()
		}
	}()
	add := func(a *arm) { arms = append(arms, a) }
	kernel := func(name string, cfg broker.Config, fleet []workload.BrokerCampaign, traced bool) error {
		b, err := newBroker(cfg, fleet)
		if err != nil {
			return fmt.Errorf("ladder arm %s: %w", name, err)
		}
		add(kernelArm(name, b, traced))
		return nil
	}

	// The chain mirrors what muaa-serve turns on, one layer at a time.
	cfg := broker.Config{}
	if err := kernel("legacy", cfg, stripBilling(l.fleet), false); err != nil {
		return nil, nil, err
	}
	cfg.Slate = true
	if err := kernel("slate", cfg, l.fleet, false); err != nil {
		return nil, nil, err
	}
	// The server takes the slate path only when the fleet is billed.
	cfg.Slate = s.billed
	base := "legacy"
	if s.billed {
		base = "slate"
	}
	chain := []string{base}
	newRecorder := func() *trace.Recorder { return trace.NewRecorder(trace.RecorderOptions{Capacity: 256}) }
	walDirs, flushDir := 0, ""
	walDir := func() string {
		walDirs++
		return filepath.Join(tmp, fmt.Sprintf("ladder-wal-%d", walDirs))
	}
	walOn := func(sync wal.SyncPolicy) func(*broker.Config) {
		return func(c *broker.Config) {
			c.DataDir, c.WAL = walDir(), wal.Options{Sync: sync, SnapshotEvery: -1, Retain: true}
			flushDir = c.DataDir
		}
	}
	// Each layer switches one thing on in cfg and keeps what the ones before
	// it switched on; every arm gets its own registry (and recorder, once
	// tracing is on), since a broker registers its instruments once.
	layers := []struct {
		name    string
		durable bool // only on the durable workload
		on      func(*broker.Config)
	}{
		{"metrics", false, func(c *broker.Config) {}},
		{"funnel", false, func(c *broker.Config) { c.Funnel = broker.FunnelConfig{Enabled: true} }},
		// AuditEvery is long so only the capture is priced, not the recompute
		// goroutine (which runs off the serving path every 15 s in production).
		{"audit", false, func(c *broker.Config) { c.AuditWindow, c.AuditEvery = 4096, time.Hour }},
		{"trace", false, func(c *broker.Config) { c.Tracer = newRecorder() }},
		{"wal_none", true, walOn(wal.SyncNone)},
		{"wal_flush", true, walOn(wal.SyncOnFlush)},
	}
	var metricsReg *obs.Registry // the metrics arm's, read back for the solver's class count
	for _, ly := range layers {
		if ly.durable && !s.durable {
			continue
		}
		cfg.Metrics = obs.NewRegistry()
		if cfg.Tracer != nil {
			cfg.Tracer = newRecorder()
		}
		ly.on(&cfg)
		if ly.name == "metrics" {
			metricsReg = cfg.Metrics
		}
		if err := kernel(ly.name, cfg, l.fleet, cfg.Tracer != nil); err != nil {
			return nil, nil, err
		}
		chain = append(chain, ly.name)
	}
	// The three HTTP arms each get a full broker of the top kernel config.
	var reqBytes, respBytes, discard int64
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	for _, name := range []string{"api", "middleware", "nethttp"} {
		cfg.Metrics, cfg.Tracer = obs.NewRegistry(), newRecorder()
		if s.durable {
			cfg.DataDir = walDir()
		}
		b, err := newBroker(cfg, l.fleet)
		if err != nil {
			return nil, nil, fmt.Errorf("ladder arm %s: %w", name, err)
		}
		closeFn := func() { b.Close() }
		var h http.Handler = broker.NewAPI(b)
		switch name {
		case "api":
			add(handlerArm(name, h, closeFn, &reqBytes, &respBytes))
		case "middleware":
			add(handlerArm(name, trace.Middleware(h, logger, cfg.Tracer), closeFn, &discard, &discard))
		case "nethttp":
			a, err := socketArm(name, trace.Middleware(h, logger, cfg.Tracer), closeFn)
			if err != nil {
				b.Close()
				return nil, nil, err
			}
			add(a)
		}
		chain = append(chain, name)
	}

	// Side measurements on the same stream: the grid probe alone, and the
	// slot solver at the candidate counts the probe finds.
	grid := geo.NewGrid(geo.UnitSquare, 64)
	for i, c := range l.fleet {
		grid.InsertWithRadius(int32(i), c.Loc, c.Radius)
	}
	var ids []int32
	var geoNs []float64
	var candidates, probes int64

	at := 0
	nextBlock := func() []request {
		if at+blockReqs > len(l.requests) {
			at = 0
		}
		blk := l.requests[at : at+blockReqs]
		at += blockReqs
		return blk
	}
	start := time.Now()
	rounds := 0
	for round := -1; round < ladderRounds || (time.Since(start) < budget && round < ladderMaxRounds); round++ {
		measured := round >= 0 // round -1 warms heaps, rings and caches
		var roundSpan uint64
		if measured {
			roundSpan = spans.id()
		}
		roundStart := time.Now()
		var arrivals int
		var gNs int64
		for _, a := range arms {
			a.ns = 0
		}
		for blk := 0; blk < blocksPerRound; blk++ {
			block := nextBlock()
			for _, r := range block {
				arrivals += len(r.arrivals)
			}
			for _, a := range arms {
				id := spans.id()
				t0 := time.Now()
				for i := range block {
					if err := a.serve(&block[i]); err != nil {
						return nil, nil, fmt.Errorf("ladder arm %s: %w", a.name, err)
					}
				}
				t1 := time.Now()
				a.ns += int64(t1.Sub(t0))
				if measured {
					spans.add(span{ID: id, Parent: roundSpan, Name: "ladder." + a.name, Start: t0.UnixNano(), End: t1.UnixNano()})
				}
			}
			t0 := time.Now()
			for _, r := range block {
				for _, a := range r.arrivals {
					ids = grid.CoveredBy(ids[:0], a.Loc)
					candidates += int64(len(ids))
					probes++
				}
			}
			gNs += int64(time.Since(t0))
		}
		if !measured || arrivals == 0 {
			continue
		}
		rounds++
		spans.add(span{ID: roundSpan, Parent: parent, Name: "ladder.round", Start: roundStart.UnixNano(), End: time.Now().UnixNano()})
		per := float64(arrivals)
		for _, a := range arms {
			a.perRound = append(a.perRound, float64(a.ns)/per)
		}
		geoNs = append(geoNs, float64(gNs)/per)
	}

	med := map[string]float64{}
	rep := &ladderReport{Rungs: map[string]float64{}, Rounds: rounds, BlockRequests: blockReqs}
	for _, a := range arms {
		med[a.name] = median(a.perRound)
		rep.Arms = append(rep.Arms, armReport{Name: a.name, MedianNs: med[a.name], MADNs: mad(a.perRound), Rounds: a.perRound})
	}
	// A layer cannot cost less than nothing: a negative difference is noise,
	// and clamping it is what makes sum vs top a real check on that noise.
	rung := func(hi, lo string) float64 {
		if d := med[hi] - med[lo]; d > 0 {
			return d
		}
		return 0
	}
	out := rep.Rungs
	out["geo.covered_by_ns"] = median(geoNs)
	if probes > 0 {
		out["geo.candidates_per_arrival"] = float64(candidates) / float64(probes)
	}
	out["broker.bare_ns"] = med[base]
	out["broker.slate_ns"] = rung("slate", "legacy")
	out["knapsack.solve_ns"] = 0
	if s.billed {
		// How many candidates reach the slot solver is the broker's own
		// count: the metrics arm's "offered" scan outcome.
		sc, err := scrapeRegistry(metricsReg)
		if err != nil {
			return nil, nil, err
		}
		classes := sc[`muaa_broker_scan_outcomes_total{outcome="offered"}`] / sc.sum("muaa_broker_arrivals_total")
		out["knapsack.solve_ns"] = solverCost(classes, l.requests)
	}
	names := map[string]string{
		"metrics": "obs.metrics_ns", "funnel": "funnel.ns", "audit": "audit.capture_ns", "trace": "trace.arrival_ns",
		"wal_none": "wal.append_ns", "wal_flush": "wal.fsync_ns", "api": "api.json_ns",
		"middleware": "trace.middleware_ns", "nethttp": "serve.nethttp_ns",
	}
	for _, n := range names {
		out[n] = 0 // every rung is always reported; absent layers cost nothing
	}
	sum := med[base]
	for i := 1; i < len(chain); i++ {
		d := rung(chain[i], chain[i-1])
		out[names[chain[i]]] = d
		sum += d
	}
	out["ladder.sum_ns"] = sum
	out["ladder.top_ns"] = med["nethttp"]
	// Bytes and probes both count every round, the warm-up one included.
	out["api.req_bytes_per_arrival"] = float64(reqBytes) / float64(probes)
	out["api.resp_bytes_per_arrival"] = float64(respBytes) / float64(probes)
	out["wal.bytes_per_arrival"] = 0
	if s.durable {
		// The flush arm's directory holds what its broker logged, less the
		// last unflushed group.
		var size int64
		entries, _ := os.ReadDir(flushDir)
		for _, e := range entries {
			if info, err := e.Info(); err == nil {
				size += info.Size()
			}
		}
		out["wal.bytes_per_arrival"] = float64(size) / float64(probes)
	}
	return out, rep, nil
}
