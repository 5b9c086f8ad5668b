// Command muaa-serve runs the location-based advertising broker as an HTTP
// service — the long-lived system around the paper's online algorithm.
//
//	muaa-serve -addr :8080 -data-dir /var/lib/muaa
//
// Every route exists once, under /v1 (JSON bodies, uniform
// `{"error":{"code":...,"message":...}}` envelope on every failure; a GET
// route also answers HEAD). Only the two probe endpoints keep a second,
// unversioned spelling — /healthz and /metrics — because load-balancer and
// scraper configs carry those paths by convention:
//
//	POST /v1/campaigns            register a vendor campaign → {id}
//	POST /v1/campaigns/{id}/topup add budget
//	POST /v1/campaigns/{id}/pause pause / resume
//	GET  /v1/campaigns/{id}       live campaign state
//	POST /v1/arrivals             a customer arrival → the ads to deliver now
//	POST /v1/arrivals:batch       an arrival window → per-arrival results (docs/API.md)
//	GET  /v1/stats                broker counters (γ bounds, derived g, spend)
//	GET  /v1/campaigns            list all campaign states
//	GET  /v1/map.svg              the live campaign map as SVG
//	GET  /v1/metrics              Prometheus text exposition (docs/OPERATIONS.md)
//	GET  /v1/healthz              readiness: 200 once recovery finished, 503 before
//
// Example session:
//
//	curl -s localhost:8080/v1/campaigns -H 'Content-Type: application/json' -d '{"loc":{"x":0.5,"y":0.5},"radius":0.1,"budget":20,"tags":[1,0,0.2]}'
//	curl -s localhost:8080/v1/arrivals  -H 'Content-Type: application/json' -d '{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}'
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/v1/metrics | grep muaa_broker_arrival_seconds
//
// With -data-dir set the broker is durable: every mutation is written to a
// write-ahead log before it is acknowledged, compacting snapshots bound
// replay time, and a restart rebuilds the exact pre-crash state. While that
// replay is running the server already listens, but broker endpoints
// (including /v1/healthz and /v1/stats) answer 503 with the error envelope so
// load-balancers keep traffic away; /v1/metrics is live from boot. SIGINT or
// SIGTERM drains in-flight requests, flushes and fsyncs the log, writes a
// final snapshot and exits cleanly.
//
// The broker shards campaign state by spatial stripe so arrivals in
// different regions are served in parallel; -shards overrides the
// GOMAXPROCS-scaled default. Every flag and every exported metric is
// documented in docs/OPERATIONS.md.
//
// -debug-addr starts a second, separate listener exposing net/http/pprof
// under /debug/pprof/, the flight recorder under /v1/debug/traces, the
// live quality audit under /v1/debug/audit, the time-series retention ring
// under /v1/debug/timeseries, the SLO watchdog under /v1/debug/slo, the
// read-only arrival explain-replay under POST /v1/debug/explain (wrapped by
// cmd/muaa-explain) and per-campaign decision funnels under
// GET /v1/debug/campaigns/{id}/funnel — opt-in and intended to stay on a
// loopback or otherwise private address; the serving port never exposes
// profiling, traces, audits or history. During WAL recovery every
// /v1/debug/* endpoint answers the same 503 `unavailable` envelope as the
// serving API.
//
// -funnel (default on) attributes every scan disposition to its campaign's
// own exact counter row, exposed as muaa_funnel_* metrics (per-campaign
// series for the top 16 by gathered count) and the funnel endpoint;
// -funnel=false turns attribution off (the endpoint then answers 404
// funnel_disabled).
//
// A background sampler snapshots the whole metrics registry every
// -sample-every (counter deltas become rates, gauges are stored as-is,
// histograms as windowed p50/p95/p99) into fixed-capacity rings of
// -sample-capacity points per series — the process's own short-term memory,
// queryable at GET /v1/debug/timeseries and rendered live by cmd/muaa-top.
// -slo arms the burn-rate watchdog over those rings (arrival latency,
// empirical-ratio dips, WAL fsync stalls, escrow growth, runtime runaway;
// see internal/slo): rules fire as structured slo_firing log events,
// muaa_slo_* gauges, and GET /v1/debug/slo.
//
// The broker keeps a sliding window of the last -audit-window arrivals and
// every -audit-every recomputes an offline-oracle quality report off the
// serving path: the empirical competitive ratio, the paper's (ln g + 1)/θ
// bound, counterfactual fixed-threshold regret and per-campaign pacing all
// land as muaa_broker_* gauges on /metrics, and the full report is served at
// GET /v1/debug/audit (?refresh=true forces a recompute). -audit-window 0
// disables live auditing. With -wal-retain (the default) superseded WAL
// segments are kept after compaction so `muaa-audit -data-dir ...` can audit
// the broker's whole life; -wal-retain=false restores reclaiming them.
//
// Every request is traced: the server honors an incoming W3C traceparent
// header (minting IDs otherwise), echoes the resulting traceparent on the
// response, and emits one JSON access-log line per request with the
// trace_id. Completed arrival traces land in a flight recorder sized by
// -trace-capacity, with slow (≥ -trace-slow) and anomalous ones retained
// preferentially. All process logs are structured JSON on stderr (slog),
// batched by obs.LogHandler (docs/OPERATIONS.md "Tracing & logs"); nothing
// in this binary writes through the stdlib global logger.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"muaa/internal/broker"
	"muaa/internal/buildinfo"
	"muaa/internal/obs"
	"muaa/internal/pacing"
	"muaa/internal/slo"
	"muaa/internal/trace"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

// serverOpts carries the flag values into newServer; main binds the flags
// straight onto its fields.
type serverOpts struct {
	addr          string
	g, pacing     float64
	shards        int
	dataDir       string // empty = in-memory broker
	walSync       string // flush | always | none (wal.ParseSyncPolicy)
	walFlushEvery time.Duration
	snapshotEvery int
	traceCapacity int           // flight-recorder reservoir size; <= 0 disables tracing
	traceSlow     time.Duration // slow-trace retention threshold; 0 = recorder default
	auditWindow   int           // live-audit arrival window; <= 0 disables auditing
	auditEvery    time.Duration // live-audit recompute cadence; 0 = broker default
	walRetain     bool          // keep superseded WAL segments for full-history audits
	controller    string        // pacing-controller spec ("" = off; see pacing.ParseConfig)
	sampleEvery   time.Duration // time-series sampling cadence; 0 = 5s default, negative disables
	sampleCap     int           // retention-ring points per series; 0 = 360 default
	slo           string        // SLO watchdog spec ("" = off; see slo.ParseConfig)
	funnel        bool          // per-campaign decision-funnel attribution
}

// app is the serving process: an HTTP server whose broker may still be
// recovering. The mux is built once at construction; handlers consult the
// atomic api pointer so the listener can accept probes (answering 503)
// while boot replays the write-ahead log.
type app struct {
	srv      *http.Server
	reg      *obs.Registry
	cfg      broker.Config
	logger   *slog.Logger
	tracer   *trace.Recorder              // nil when tracing is disabled
	sampler  *obs.Sampler                 // nil when -sample-every is negative
	watchdog atomic.Pointer[slo.Watchdog] // nil when -slo is empty; pointer
	// because the sampler's OnSample hook is installed before the watchdog
	// exists
	api atomic.Pointer[broker.API]
	b   atomic.Pointer[broker.Broker]
}

// newServer validates the flag values and builds the instrumented server.
// logger may be nil (logs are discarded — tests). The broker itself is
// created by boot — synchronously here when no data directory is
// configured (nothing to replay), otherwise by the caller so the listener
// can come up first.
func newServer(o serverOpts, logger *slog.Logger) (*app, error) {
	sync, err := wal.ParseSyncPolicy(o.walSync)
	if err != nil {
		return nil, err
	}
	if logger == nil {
		logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	a := &app{
		reg:    obs.NewRegistry(),
		logger: logger,
	}
	obs.RegisterRuntimeMetrics(a.reg)
	buildinfo.Register(a.reg)
	if o.traceCapacity > 0 {
		a.tracer = trace.NewRecorder(trace.RecorderOptions{
			Capacity:      o.traceCapacity,
			SlowThreshold: o.traceSlow,
		})
	}
	if o.sampleEvery >= 0 {
		a.sampler = obs.NewSampler(a.reg, obs.SamplerOptions{
			Every:    o.sampleEvery,
			Capacity: o.sampleCap,
			// The watchdog evaluates on the sampling goroutine, right after
			// the sample that might trip it lands in the rings.
			OnSample: func(now time.Time) {
				if wd := a.watchdog.Load(); wd != nil {
					wd.EvalAt(now)
				}
			},
		})
	}
	if o.slo != "" {
		if a.sampler == nil {
			return nil, errors.New("muaa-serve: -slo needs the time-series sampler (-sample-every >= 0)")
		}
		scfg, err := slo.ParseConfig(o.slo)
		if err != nil {
			return nil, err
		}
		a.watchdog.Store(slo.New(a.sampler, a.reg, logger, scfg.Rules()))
	}
	a.cfg = broker.Config{
		AdTypes: workload.DefaultAdTypes(),
		G:       o.g,
		Pacing:  o.pacing,
		Shards:  o.shards,
		Metrics: a.reg,
		Tracer:  a.tracer,
		Logger:  logger,
		DataDir: o.dataDir,
		WAL: wal.Options{
			Sync:          sync,
			FlushInterval: o.walFlushEvery,
			SnapshotEvery: o.snapshotEvery,
			Retain:        o.walRetain,
		},
		AuditWindow: o.auditWindow,
		AuditEvery:  o.auditEvery,
		Funnel:      broker.FunnelConfig{Enabled: o.funnel},
	}
	if o.controller != "" {
		cc, err := pacing.ParseConfig(o.controller)
		if err != nil {
			return nil, err
		}
		if o.auditWindow <= 0 {
			return nil, errors.New("muaa-serve: -pacing-controller needs -audit-window > 0 for its feedback signal")
		}
		a.cfg.Controller = &cc
	}
	if o.dataDir == "" {
		err = a.boot()
	} else {
		// Surface config errors (bad g, pacing, shards) before the listener
		// starts, without touching the data directory: the same validation
		// the real boot will run.
		err = a.cfg.Validate()
	}
	if err != nil {
		return nil, err
	}
	// /metrics is live from process start — scrapes during recovery show the
	// WAL replay progressing.
	metrics, healthz := get(a.reg.Handler().ServeHTTP), get(a.serveHealthz)
	a.srv = &http.Server{
		Addr: o.addr,
		// The tracing middleware derives/echoes traceparent, emits the
		// access log and records unavailable arrival traces around every
		// route. The two probe endpoints are the only paths with a second,
		// unversioned spelling; anything else is the API mux's to route or
		// refuse.
		Handler: trace.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/metrics", "/v1/metrics":
				metrics.ServeHTTP(w, r)
			case "/healthz", "/v1/healthz":
				healthz.ServeHTTP(w, r)
			default:
				a.serveAPI(w, r)
			}
		}), logger, a.tracer),
		ReadHeaderTimeout: 5 * time.Second,
	}
	// Past the last error return: the sampling goroutine cannot leak from
	// a constructor failure. Sampling runs through recovery — the rings
	// record the replay progressing.
	if a.sampler != nil {
		a.sampler.Start()
	}
	return a, nil
}

// boot creates (and, with a data directory, recovers) the broker and flips
// the server ready. Idempotent.
func (a *app) boot() error {
	if a.api.Load() != nil {
		return nil
	}
	b, err := broker.New(a.cfg)
	if err != nil {
		return err
	}
	a.b.Store(b)
	a.api.Store(broker.NewAPI(b))
	return nil
}

// shutdown drains in-flight requests, then closes the broker — flushing and
// fsyncing the write-ahead log and writing a final snapshot so the next
// boot replays nothing.
func (a *app) shutdown(ctx context.Context) error {
	err := a.srv.Shutdown(ctx)
	if a.sampler != nil {
		a.sampler.Stop()
	}
	if b := a.b.Load(); b != nil {
		if cerr := b.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// serveAPI forwards to the broker API once recovery has finished; before
// that every broker endpoint — /v1/stats and /v1/healthz included — answers
// 503 with the uniform error envelope so probes and load-balancers back off.
func (a *app) serveAPI(w http.ResponseWriter, r *http.Request) {
	api := a.api.Load()
	if api == nil {
		unavailable(w)
		return
	}
	api.ServeHTTP(w, r)
}

// unavailable is the one recovery-gate reply: 503 with Retry-After and the
// uniform error envelope, from every listener, until boot stores the API.
func unavailable(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	obs.WriteError(w, http.StatusServiceUnavailable, "unavailable", "recovery in progress")
}

// get serves h for GET, and so HEAD, through the one method dispatcher.
func get(h http.HandlerFunc) http.Handler {
	return obs.MethodHandler(map[string]http.HandlerFunc{http.MethodGet: h})
}

func (a *app) serveHealthz(w http.ResponseWriter, r *http.Request) {
	if a.api.Load() == nil {
		unavailable(w)
		return
	}
	obs.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// newDebugServer builds the opt-in debug listener: net/http/pprof at the
// standard library's paths plus six endpoints, each at its /v1/debug/ path
// only — traces, timeseries, slo (404 under their own code when the flag
// switched the subsystem off), audit, explain and the campaign funnel.
// Anything else is the enveloped 404. The handlers are mounted on a private
// mux (not http.DefaultServeMux) so nothing else in the process can
// accidentally widen what this port serves. Every /v1/debug/* endpoint shares
// the recovery gate: until WAL replay finishes they answer the uniform 503
// envelope, like the serving API.
func (a *app) newDebugServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteError(w, http.StatusNotFound, "not_found", "no route for "+r.URL.Path)
	})
	mount := func(path string, h http.Handler) { mux.Handle(path, a.gateRecovery(h)) }
	// A subsystem its flag switched off answers 404 under its own code.
	disabled := func(code, msg string) http.Handler {
		return get(func(w http.ResponseWriter, r *http.Request) {
			obs.WriteError(w, http.StatusNotFound, code, msg)
		})
	}
	traces := disabled("tracing_disabled", "tracing disabled; start muaa-serve with -trace-capacity > 0")
	timeseries := disabled("sampler_disabled", "time-series sampling disabled; start muaa-serve with -sample-every >= 0")
	slodoc := disabled("slo_disabled", "SLO watchdog disabled; start muaa-serve with -slo (e.g. -slo on)")
	if a.tracer != nil {
		traces = a.tracer.Handler()
	}
	if a.sampler != nil {
		timeseries = a.sampler.Handler()
	}
	if wd := a.watchdog.Load(); wd != nil {
		slodoc = wd.Handler()
	}
	mount("/v1/debug/traces", traces)
	mount("/v1/debug/timeseries", timeseries)
	mount("/v1/debug/slo", slodoc)
	mount("/v1/debug/audit", get(a.serveDebugAudit))
	// The broker's own handlers (explain.go), reached through a.b per request:
	// the broker does not exist yet when the mux is built.
	mount("/v1/debug/explain", obs.MethodHandler(map[string]http.HandlerFunc{
		http.MethodPost: func(w http.ResponseWriter, r *http.Request) { a.b.Load().ServeExplain(w, r) },
	}))
	mount("/v1/debug/campaigns/{id}/funnel", get(func(w http.ResponseWriter, r *http.Request) {
		a.b.Load().ServeCampaignFunnel(w, r)
	}))
	return &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
}

// gateRecovery holds a debug endpoint behind the WAL-recovery gate: until
// boot stores the API pointer, it answers the same 503 `unavailable`
// envelope as the serving mux, so scrapers and dashboards back off
// uniformly. boot stores a.b before a.api, so a handler behind the gate
// reads a.b without a nil check.
func (a *app) gateRecovery(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if a.api.Load() == nil {
			unavailable(w)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// serveDebugAudit returns the latest live quality-audit report as JSON.
// ?refresh=true (any strconv.ParseBool form) forces a synchronous window
// recompute; otherwise the first request computes one and later requests
// read whatever the audit loop last stored. Follows the serving API's
// error-envelope contract for every failure.
func (a *app) serveDebugAudit(w http.ResponseWriter, r *http.Request) {
	refresh := false
	if s := r.URL.Query().Get("refresh"); s != "" {
		v, err := strconv.ParseBool(s)
		if err != nil {
			obs.WriteError(w, http.StatusBadRequest, "bad_request",
				"refresh must be a boolean (true/false/1/0)")
			return
		}
		refresh = v
	}
	b := a.b.Load()
	rep := b.AuditReport()
	if refresh || rep == nil {
		var err error
		rep, err = b.AuditNow()
		if errors.Is(err, broker.ErrAuditDisabled) {
			obs.WriteError(w, http.StatusNotFound, "audit_disabled",
				"live audit disabled; start muaa-serve with -audit-window > 0")
			return
		}
		if err != nil {
			obs.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
	}
	obs.WriteJSON(w, http.StatusOK, rep)
}

// startDebug launches the debug listener in the background. A listener
// error — the port already bound, the listener closed later — must not
// take down the serving process: it degrades to a structured error log.
func (a *app) startDebug(dbg *http.Server) {
	go func() {
		if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			a.logger.Error("debug_listener_failed",
				slog.String("addr", dbg.Addr),
				slog.String("error", err.Error()))
		}
	}()
}

// parseLogLevel maps the -log-level flag to a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, errors.New("unknown log level " + s + " (want debug, info, warn or error)")
}

func main() {
	var o serverOpts
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.Float64Var(&o.g, "g", 0, "adaptive threshold base g (> e); 0 = derive from observed γ bounds")
	flag.Float64Var(&o.pacing, "pacing", 0, "daily budget pacing factor (0 = off, 1 = strictly uniform)")
	flag.IntVar(&o.shards, "shards", 0, "spatial shard count for concurrent serving (0 = scale to GOMAXPROCS)")
	flag.StringVar(&o.dataDir, "data-dir", "", "durability directory for the write-ahead log and snapshots; empty = in-memory only")
	flag.StringVar(&o.walSync, "wal-sync", "flush", "WAL fsync policy: flush (fsync each group commit), always (fsync every record), none (leave it to the OS)")
	flag.DurationVar(&o.walFlushEvery, "wal-flush-interval", 0, "max time a buffered WAL record may wait before reaching the OS (0 = 50ms default)")
	flag.IntVar(&o.snapshotEvery, "snapshot-every", 0, "WAL records between compacting snapshots (0 = 262144 default, negative disables)")
	flag.IntVar(&o.traceCapacity, "trace-capacity", 256, "flight-recorder reservoir size for arrival traces (0 disables tracing)")
	flag.DurationVar(&o.traceSlow, "trace-slow", 25*time.Millisecond, "arrival traces at least this slow are always retained")
	flag.IntVar(&o.auditWindow, "audit-window", 4096, "live quality audit: sliding window of recent arrivals (0 disables auditing)")
	flag.DurationVar(&o.auditEvery, "audit-every", 15*time.Second, "live quality audit recompute cadence")
	flag.BoolVar(&o.walRetain, "wal-retain", true, "keep superseded WAL segments after compaction so muaa-audit can replay the full history")
	flag.StringVar(&o.controller, "pacing-controller", "", "adaptive pacing controller: \"on\" for defaults or \"k=v,...\" overrides (target, gain, deadband, pace-gain, pace-bias, boost-min, boost-max, tighten-at, loosen-at, rate); empty disables")
	flag.DurationVar(&o.sampleEvery, "sample-every", 5*time.Second, "time-series sampling cadence for /v1/debug/timeseries (negative disables the sampler)")
	flag.IntVar(&o.sampleCap, "sample-capacity", 360, "retention-ring points kept per time series (memory ≈ 16 B × capacity × series)")
	flag.StringVar(&o.slo, "slo", "", "SLO burn-rate watchdog: \"on\" for defaults or \"k=v,...\" overrides (short, long, burn, clear, min-samples, ratio-target, arrival-p99-ms, floor-max, wal-p99-ms, escrow-open-max, heap-max-mb, goroutines-max); empty disables")
	flag.BoolVar(&o.funnel, "funnel", true, "per-campaign decision-funnel attribution: muaa_funnel_* metrics and GET /v1/debug/campaigns/{id}/funnel")
	var (
		debugAddr = flag.String("debug-addr", "", "optional second listen address for net/http/pprof and /v1/debug/traces (e.g. 127.0.0.1:6060); empty disables")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("muaa-serve"))
		return
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		// The logger doesn't exist yet; build a default one just to report.
		level = slog.LevelInfo
	}
	// One buffered sink behind every logger; each exit path below closes it.
	sink := obs.NewLogHandler(os.Stderr, level)
	logger := slog.New(sink)
	fatal := func(msg string, ferr error) {
		logger.Error(msg, slog.String("error", ferr.Error()))
		sink.Close()
		os.Exit(1)
	}
	if err != nil {
		fatal("bad_flag", err)
	}
	a, err := newServer(o, logger)
	if err != nil {
		fatal("bad_config", err)
	}
	if *debugAddr != "" {
		a.startDebug(a.newDebugServer(*debugAddr))
		logger.Info("debug_listening",
			slog.String("addr", *debugAddr),
			slog.Bool("traces", a.tracer != nil))
	}

	// Listen first, recover second: during a long replay the port is
	// already up and answering 503, so orchestrators see the process as
	// alive-but-not-ready instead of connection-refused.
	serveErr := make(chan error, 1)
	go func() { serveErr <- a.srv.ListenAndServe() }()
	bootErr := make(chan error, 1)
	go func() {
		start := time.Now()
		if err := a.boot(); err != nil {
			bootErr <- err
			return
		}
		if o.dataDir != "" {
			info := a.b.Load().RecoveryStats()
			logger.Info("recovered",
				slog.String("data_dir", o.dataDir),
				slog.Float64("duration_ms", float64(time.Since(start))/float64(time.Millisecond)),
				slog.Bool("snapshot", info.SnapshotLoaded),
				slog.Int("records", info.RecordsReplayed),
				slog.Bool("truncated", info.Truncated))
		}
		logger.Info("ready",
			slog.String("addr", o.addr),
			slog.Int("ad_types", len(workload.DefaultAdTypes())),
			slog.Bool("tracing", a.tracer != nil))
	}()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		fatal("listen_failed", err)
	case err := <-bootErr:
		fatal("boot_failed", err)
	case s := <-sigs:
		logger.Info("shutdown_signal", slog.String("signal", s.String()))
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := a.shutdown(ctx); err != nil {
			fatal("shutdown_failed", err)
		}
		logger.Info("shutdown_complete")
		sink.Close()
	}
}
