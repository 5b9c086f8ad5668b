// Command muaa-serve runs the location-based advertising broker as an HTTP
// service — the long-lived system around the paper's online algorithm.
//
//	muaa-serve -addr :8080 -data-dir /var/lib/muaa
//
// With -data-dir set the broker is durable: every mutation is logged before
// it is acknowledged, and a restart rebuilds the exact pre-crash state. The
// listener comes up before that replay ends; until it does, broker and debug
// endpoints answer 503 `unavailable`. The first failed log write or fsync
// makes the broker read-only until a restart. SIGINT or SIGTERM drains
// in-flight requests, then flushes the log and writes a final snapshot.
//
// The flags bind onto one config value, and newServer refuses a bad one
// before it builds anything. docs/API.md lists the routes; docs/OPERATIONS.md
// the flags, metrics, logs and debug endpoints.
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

// config is everything the process runs on: the option structs it hands the
// broker (with its WAL, pacing controller and funnel), the flight recorder
// and the sampler, the SLO rules, the two listen addresses and the log level.
// bind points every flag at one field; validate holds every rule that spans
// fields.
type config struct {
	addr, debugAddr string // debugAddr empty = no debug listener
	logLevel        slog.Level
	version         bool
	broker          broker.Config         // Controller nil = controller off
	trace           trace.RecorderOptions // Capacity ≤ 0 disables tracing
	sample          obs.SamplerOptions    // Every < 0 disables the sampler
	slo             *slo.Config           // nil = watchdog off
}

// defaultConfig is the production configuration, the flags' defaults. Funnel
// attribution is always on; the 25 ms slow-trace threshold, the 360-point
// rings and the 50 ms WAL flush bound are their libraries' constants.
func defaultConfig() config {
	return config{
		addr:     ":8080",
		logLevel: slog.LevelInfo,
		broker: broker.Config{
			AdTypes:     workload.DefaultAdTypes(),
			WAL:         wal.Options{Retain: true},
			AuditWindow: 4096,
			AuditEvery:  15 * time.Second,
			Funnel:      broker.FunnelConfig{Enabled: true},
		},
		trace:  trace.RecorderOptions{Capacity: 256},
		sample: obs.SamplerOptions{Every: 5 * time.Second},
	}
}

// bind registers every flag on fs, each defaulting to and writing one field
// of c. The spec flags are parsed into their typed fields here, so a bad
// value is a flag error; an empty -pacing-controller or -slo means off.
func (c *config) bind(fs *flag.FlagSet) {
	fs.StringVar(&c.addr, "addr", c.addr, "listen address")
	fs.StringVar(&c.debugAddr, "debug-addr", c.debugAddr, "optional second listen address for net/http/pprof and /v1/debug/* (e.g. 127.0.0.1:6060); empty disables")
	fs.TextVar(&c.logLevel, "log-level", c.logLevel, "minimum log level: debug, info, warn or error")
	fs.BoolVar(&c.version, "version", c.version, "print version and exit")
	fs.Float64Var(&c.broker.G, "g", c.broker.G, "adaptive threshold base g (> e); 0 = derive from observed γ bounds")
	fs.Float64Var(&c.broker.Pacing, "pacing", c.broker.Pacing, "daily budget pacing factor (0 = off, 1 = strictly uniform)")
	fs.IntVar(&c.broker.Shards, "shards", c.broker.Shards, "spatial shard count for concurrent serving, at most 64 (0 = scale to GOMAXPROCS)")
	fs.StringVar(&c.broker.DataDir, "data-dir", c.broker.DataDir, "durability directory for the write-ahead log and snapshots; empty = in-memory only")
	fs.Func("wal-sync", "WAL fsync policy: flush (the default: fsync each group commit), always (fsync every record), none (leave it to the OS)", func(s string) (err error) {
		c.broker.WAL.Sync, err = wal.ParseSyncPolicy(s)
		return err
	})
	fs.IntVar(&c.broker.WAL.SnapshotEvery, "snapshot-every", c.broker.WAL.SnapshotEvery, "WAL records between compacting snapshots (0 = 262144 default, negative disables)")
	fs.BoolVar(&c.broker.WAL.Retain, "wal-retain", c.broker.WAL.Retain, "keep superseded WAL segments after compaction so muaa-audit can replay the full history")
	fs.IntVar(&c.broker.AuditWindow, "audit-window", c.broker.AuditWindow, "live quality audit: sliding window of recent arrivals (0 disables auditing)")
	fs.DurationVar(&c.broker.AuditEvery, "audit-every", c.broker.AuditEvery, "live quality audit recompute cadence")
	fs.Func("pacing-controller", "adaptive pacing controller: \"on\" for defaults or \"k=v,...\" overrides (target, gain, deadband, pace-gain, pace-bias, boost-min, boost-max, tighten-at, loosen-at, rate); empty disables", func(s string) (err error) {
		c.broker.Controller, err = optional(s, pacing.ParseConfig)
		return err
	})
	fs.IntVar(&c.trace.Capacity, "trace-capacity", c.trace.Capacity, "flight-recorder reservoir size for arrival traces (0 disables tracing)")
	fs.DurationVar(&c.sample.Every, "sample-every", c.sample.Every, "time-series sampling cadence for /v1/debug/timeseries (negative disables the sampler)")
	fs.Func("slo", "SLO burn-rate watchdog: \"on\" for defaults or \"k=v,...\" overrides (short, long, burn, clear, min-samples, ratio-target, arrival-p99-ms, floor-max, wal-p99-ms, escrow-open-max, heap-max-mb, goroutines-max); empty disables", func(s string) (err error) {
		c.slo, err = optional(s, slo.ParseConfig)
		return err
	})
}

// optional parses a spec flag whose empty value means the subsystem is off.
func optional[T any](s string, parse func(string) (T, error)) (*T, error) {
	if s == "" {
		return nil, nil
	}
	v, err := parse(s)
	if err != nil {
		return nil, err
	}
	return &v, nil
}

// validate reports every configuration error: the rules between fields here,
// the broker's own (g, pacing, shards, controller) from broker.Config.
func (c *config) validate() error {
	if c.slo != nil && c.sample.Every < 0 {
		return errors.New("muaa-serve: -slo needs the time-series sampler (-sample-every >= 0)")
	}
	if c.broker.Controller != nil && c.broker.AuditWindow <= 0 {
		return errors.New("muaa-serve: -pacing-controller needs -audit-window > 0 for its feedback signal")
	}
	return c.broker.Validate()
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
	tracer   *trace.Recorder // nil when tracing is disabled
	sampler  *obs.Sampler    // nil when -sample-every is negative
	watchdog *slo.Watchdog   // nil when -slo is empty; set before the sampler starts
	api      atomic.Pointer[broker.API]
	b        atomic.Pointer[broker.Broker]
}

// newServer validates cfg, then builds the instrumented server around a
// broker that does not exist yet: boot creates (and recovers) it, after the
// listener is up. logger may be nil (logs are discarded — tests).
func newServer(cfg config, logger *slog.Logger) (*app, error) {
	if err := cfg.validate(); err != nil {
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
	if cfg.trace.Capacity > 0 {
		a.tracer = trace.NewRecorder(cfg.trace)
	}
	if cfg.sample.Every >= 0 {
		// The watchdog evaluates on the sampling goroutine, right after the
		// sample that might trip it lands in the rings.
		cfg.sample.OnSample = func(now time.Time) {
			if a.watchdog != nil {
				a.watchdog.EvalAt(now)
			}
		}
		a.sampler = obs.NewSampler(a.reg, cfg.sample)
		if cfg.slo != nil {
			a.watchdog = slo.New(a.sampler, a.reg, logger, cfg.slo.Rules())
		}
		// Sampling runs through recovery — the rings record the replay
		// progressing.
		a.sampler.Start()
	}
	a.cfg = cfg.broker
	a.cfg.Metrics, a.cfg.Tracer, a.cfg.Logger = a.reg, a.tracer, logger
	// /metrics is live from process start — scrapes during recovery show the
	// WAL replay progressing; everything else waits behind the recovery gate.
	metrics, healthz := get(a.reg.Handler().ServeHTTP), a.gateRecovery(get(a.serveHealthz))
	api := a.gateRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { a.api.Load().ServeHTTP(w, r) }))
	a.srv = &http.Server{
		Addr: cfg.addr,
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
				api.ServeHTTP(w, r)
			}
		}), logger, a.tracer),
		ReadHeaderTimeout: 5 * time.Second,
	}
	return a, nil
}

// boot creates (and, with a data directory, recovers) the broker and flips
// the server ready. Called once per app.
func (a *app) boot() error {
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

// unavailable is the one not-ready reply: 503 with Retry-After and the error
// envelope, from the recovery gate and from /healthz while read-only.
func unavailable(w http.ResponseWriter, why string) {
	w.Header().Set("Retry-After", "1")
	obs.WriteError(w, http.StatusServiceUnavailable, "unavailable", why)
}

// get serves h for GET, and so HEAD, through the one method dispatcher.
func get(h http.HandlerFunc) http.Handler {
	return obs.MethodHandler(map[string]http.HandlerFunc{http.MethodGet: h})
}

func (a *app) serveHealthz(w http.ResponseWriter, r *http.Request) {
	if err := a.b.Load().Err(); err != nil {
		unavailable(w, err.Error())
		return
	}
	obs.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// newDebugServer builds the opt-in debug listener: net/http/pprof at the
// standard library's paths plus seven endpoints, each at its /v1/debug/ path
// only — traces, timeseries, slo (404 under their own code when the flag
// switched the subsystem off), audit, explain, the campaign funnel and the
// invariant check.
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
	if a.watchdog != nil {
		slodoc = a.watchdog.Handler()
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
	mount("/v1/debug/invariants", get(func(w http.ResponseWriter, r *http.Request) {
		a.b.Load().ServeInvariants(w, r)
	}))
	return &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
}

// gateRecovery holds an endpoint behind the WAL-recovery gate: until boot
// stores the API pointer, every broker and debug endpoint — /v1/stats and
// /v1/healthz included — answers the same 503 `unavailable` envelope, so
// probes, load-balancers and dashboards back off uniformly. boot stores a.b
// before a.api, so a handler behind the gate reads a.b without a nil check.
func (a *app) gateRecovery(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if a.api.Load() == nil {
			unavailable(w, "recovery in progress")
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

func main() {
	cfg := defaultConfig()
	cfg.bind(flag.CommandLine)
	flag.Parse()
	if cfg.version {
		fmt.Println(buildinfo.String("muaa-serve"))
		return
	}
	// One buffered sink behind every logger; each exit path below closes it.
	sink := obs.NewLogHandler(os.Stderr, cfg.logLevel)
	logger := slog.New(sink)
	fatal := func(msg string, ferr error) {
		logger.Error(msg, slog.String("error", ferr.Error()))
		sink.Close()
		os.Exit(1)
	}
	a, err := newServer(cfg, logger)
	if err != nil {
		fatal("bad_config", err)
	}
	if cfg.debugAddr != "" {
		a.startDebug(a.newDebugServer(cfg.debugAddr))
		logger.Info("debug_listening",
			slog.String("addr", cfg.debugAddr),
			slog.Bool("traces", a.tracer != nil))
	}

	// Listen first, recover second: during a long replay the port is
	// already up and answering 503, so orchestrators see the process as
	// alive-but-not-ready instead of connection-refused.
	serveErr := make(chan error, 1)
	go func() { serveErr <- a.srv.ListenAndServe() }()
	bootErr := make(chan error, 1)
	go func() {
		if err := a.boot(); err != nil {
			bootErr <- err
			return
		}
		logger.Info("ready",
			slog.String("addr", cfg.addr),
			slog.Int("ad_types", len(cfg.broker.AdTypes)),
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
