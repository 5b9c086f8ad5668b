package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"muaa/internal/broker"
	"muaa/internal/geo"
	"muaa/internal/slo"
)

// testConfig is the production configuration on an ephemeral loopback port.
func testConfig() config {
	cfg := defaultConfig()
	cfg.addr = "127.0.0.1:0"
	return cfg
}

// armedConfig is testConfig with every debug subsystem on and small enough
// to fill: a 16-trace recorder, a 16-arrival audit recomputed on demand
// only, and the default SLO rules.
func armedConfig() config {
	cfg := testConfig()
	rules := slo.Default()
	cfg.trace.Capacity, cfg.slo = 16, &rules
	cfg.broker.AuditWindow, cfg.broker.AuditEvery = 16, time.Hour
	return cfg
}

// startServer binds an ephemeral port, serves on it in the background, and
// returns the base URL.
func startServer(t *testing.T, g, pacing float64, shards int) string {
	t.Helper()
	cfg := testConfig()
	cfg.broker.G, cfg.broker.Pacing, cfg.broker.Shards = g, pacing, shards
	base, _ := startServerOpts(t, cfg)
	return base
}

// startServerOpts is the full-config variant: it boots the broker (running
// recovery when cfg.broker.DataDir is set), serves on an ephemeral port, and
// returns the base URL plus the app for shutdown-style tests.
func startServerOpts(t *testing.T, cfg config) (string, *app) {
	t.Helper()
	base, _, a := startServerLogged(t, cfg, nil)
	return base, a
}

// recoveryEvent is the broker_recovery line of a durable server's log.
func recoveryEvent(t *testing.T, logs *syncBuffer) map[string]any {
	t.Helper()
	for _, m := range logs.logLines(t) {
		if m["msg"] == "broker_recovery" {
			return m
		}
	}
	t.Fatal("the boot logged no broker_recovery event")
	return nil
}

// startServerLogged additionally wires a slog logger (nil = discard) and
// returns the app for log- and trace-focused tests.
func startServerLogged(t *testing.T, cfg config, logger *slog.Logger) (string, *slog.Logger, *app) {
	t.Helper()
	cfg.addr = "127.0.0.1:0"
	a, err := newServer(cfg, logger)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.boot(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", a.srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = a.srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = a.shutdown(ctx)
	})
	return "http://" + ln.Addr().String(), logger, a
}

func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding response: %v", url, err)
	}
	return resp.StatusCode
}

// TestServeSmoke boots the real server on an ephemeral port and replays the
// README example session end to end: register a campaign, send an arrival
// inside its range, and read the counters back.
func TestServeSmoke(t *testing.T) {
	base := startServer(t, 0, 0, 0)

	var created struct {
		ID int32 `json:"id"`
	}
	if code := postJSON(t, base+"/v1/campaigns",
		`{"loc":{"x":0.5,"y":0.5},"radius":0.1,"budget":20,"tags":[1,0,0.2]}`, &created); code != http.StatusCreated {
		t.Fatalf("POST /v1/campaigns → %d", code)
	}

	var arrival struct {
		Offers []struct {
			Campaign   int32   `json:"campaign"`
			AdTypeName string  `json:"adTypeName"`
			Cost       float64 `json:"cost"`
			Utility    float64 `json:"utility"`
		} `json:"offers"`
	}
	if code := postJSON(t, base+"/v1/arrivals",
		`{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`, &arrival); code != http.StatusOK {
		t.Fatalf("POST /v1/arrivals → %d", code)
	}
	if len(arrival.Offers) == 0 {
		t.Fatal("README example arrival produced no offers")
	}
	for _, o := range arrival.Offers {
		if o.Campaign != created.ID || o.AdTypeName == "" || o.Cost <= 0 || o.Utility <= 0 {
			t.Fatalf("malformed offer %+v", o)
		}
	}

	var stats struct {
		Campaigns     int     `json:"Campaigns"`
		Arrivals      int64   `json:"Arrivals"`
		OffersPushed  int64   `json:"OffersPushed"`
		BudgetSpent   float64 `json:"BudgetSpent"`
		UtilityServed float64 `json:"UtilityServed"`
		GammaMin      float64 `json:"GammaMin"`
		GammaMax      float64 `json:"GammaMax"`
	}
	if code := getJSON(t, base+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats → %d", code)
	}
	if stats.Campaigns != 1 || stats.Arrivals != 1 || stats.OffersPushed != int64(len(arrival.Offers)) {
		t.Fatalf("stats don't reflect the session: %+v", stats)
	}
	if stats.BudgetSpent <= 0 || stats.UtilityServed <= 0 || stats.GammaMin <= 0 || stats.GammaMax < stats.GammaMin {
		t.Fatalf("counters malformed: %+v", stats)
	}

	// The campaign list and the SVG map render against the same state.
	var list []struct {
		ID    int32   `json:"id"`
		Spent float64 `json:"spent"`
	}
	if code := getJSON(t, base+"/v1/campaigns", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/campaigns → %d", code)
	}
	if len(list) != 1 || list[0].Spent != stats.BudgetSpent {
		t.Fatalf("campaign list inconsistent with stats: %+v vs %+v", list, stats)
	}
	resp, err := http.Get(base + "/v1/map.svg")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var svg bytes.Buffer
	if _, err := svg.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(svg.String(), "<svg") {
		t.Fatalf("GET /v1/map.svg → %d, body %q…", resp.StatusCode, svg.String()[:min(80, svg.Len())])
	}
}

// TestServeConcurrentSessions exercises the server under parallel HTTP
// clients — the smoke-level version of the broker's soak test.
func TestServeConcurrentSessions(t *testing.T) {
	base := startServer(t, 0, 0, 8)
	for i := 0; i < 16; i++ {
		body := fmt.Sprintf(`{"loc":{"x":%g,"y":%g},"radius":0.15,"budget":30,"tags":[1,0,0.2]}`,
			0.2+0.04*float64(i), 0.2+0.04*float64(i))
		if code := postJSON(t, base+"/v1/campaigns", body, nil); code != http.StatusCreated {
			t.Fatalf("campaign %d → %d", i, code)
		}
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; i < 25; i++ {
				x := 0.2 + 0.04*float64((w*25+i)%16)
				body := fmt.Sprintf(`{"loc":{"x":%g,"y":%g},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`, x, x)
				resp, err := client.Post(base+"/v1/arrivals", "application/json", strings.NewReader(body))
				if err != nil {
					done <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					done <- fmt.Errorf("arrival → %d", resp.StatusCode)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	var stats struct {
		Arrivals int64 `json:"Arrivals"`
	}
	if code := getJSON(t, base+"/v1/stats", &stats); code != http.StatusOK || stats.Arrivals != 200 {
		t.Fatalf("stats after concurrent sessions: code %d, %+v", code, stats)
	}
}

// parseFlags is main's configuration path on args: the defaults, every flag
// bound, one parse.
func parseFlags(args ...string) (config, error) {
	cfg := testConfig()
	fs := flag.NewFlagSet("muaa-serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg.bind(fs)
	return cfg, fs.Parse(args)
}

// TestServeRejectsBadConfig pins configuration checking through the path
// main uses: each command line below is refused by the flag parse or by
// newServer's validate — durable or not, before a listener exists and
// without touching the data directory.
func TestServeRejectsBadConfig(t *testing.T) {
	for _, args := range [][]string{
		{"-g", "1"},
		{"-g", "NaN"},
		{"-g", "+Inf"},
		{"-pacing", "-1"},
		{"-pacing", "+Inf"},
		{"-shards", "-1"},
		{"-shards", "65"},
		{"-sample-every", "-1s", "-slo", "on"},
		{"-pacing-controller", "on", "-audit-window", "0"},
		{"-wal-sync", "sometimes"},
		{"-log-level", "loud"},
	} {
		dir := t.TempDir()
		cfg, err := parseFlags(append([]string{"-data-dir", dir}, args...)...)
		if err == nil {
			_, err = newServer(cfg, nil)
		}
		if err == nil {
			t.Errorf("%v must be rejected", args)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Errorf("%v: rejecting the config touched the data directory: %v", args, entries)
		}
	}
	cfg, err := parseFlags("-shards", "64")
	if err == nil {
		err = cfg.validate()
	}
	if err != nil {
		t.Errorf("-shards 64 (the ceiling) must be accepted: %v", err)
	}
}

// TestServeMetricsAndHealth scrapes the observability endpoints of a live
// server: /healthz must answer 200 immediately, and /metrics must return
// Prometheus text exposition covering the arrival latency histograms,
// per-stripe lock counters, and the live O-AFA threshold gauges — the
// acceptance contract of docs/OPERATIONS.md.
func TestServeMetricsAndHealth(t *testing.T) {
	base := startServer(t, 0, 0, 4)

	for _, path := range []string{"/healthz", "/v1/healthz"} {
		var health struct {
			Status string `json:"status"`
		}
		if code := getJSON(t, base+path, &health); code != http.StatusOK || health.Status != "ok" {
			t.Fatalf("GET %s → %d %+v", path, code, health)
		}
	}

	// Generate some traffic so the histograms have observations.
	if code := postJSON(t, base+"/v1/campaigns",
		`{"loc":{"x":0.5,"y":0.5},"radius":0.1,"budget":20,"tags":[1,0,0.2]}`, nil); code != http.StatusCreated {
		t.Fatalf("POST /v1/campaigns → %d", code)
	}
	if code := postJSON(t, base+"/v1/arrivals",
		`{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`, nil); code != http.StatusOK {
		t.Fatalf("POST /v1/arrivals → %d", code)
	}

	// /metrics is the scraper-convention spelling of /v1/metrics, and both
	// reject non-GET with the enveloped 405 the broker API uses.
	aliasResp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	aliasResp.Body.Close()
	if aliasResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics → %d", aliasResp.StatusCode)
	}
	postResp, err := http.Post(base+"/v1/metrics", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusMethodNotAllowed || postResp.Header.Get("Allow") != "GET, HEAD" {
		t.Fatalf("POST /v1/metrics → %d (Allow %q), want enveloped 405 with Allow: GET, HEAD",
			postResp.StatusCode, postResp.Header.Get("Allow"))
	}

	// Only the four exact spellings are the server's own. Any other is the
	// API mux's to 404 or clean-and-redirect — what the outer ServeMux these
	// routes used to sit in answered, pinned here so it stays a decision.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	for _, c := range []struct {
		path     string
		status   int
		location string
	}{
		{"/metrics/", http.StatusNotFound, ""},
		{"/v1/healthz/", http.StatusNotFound, ""},
		{"//healthz", http.StatusMovedPermanently, "/healthz"},
		{"/v1/../metrics", http.StatusMovedPermanently, "/metrics"},
	} {
		resp, err := noFollow.Get(base + c.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status || resp.Header.Get("Location") != c.location {
			t.Errorf("GET %s → %d (Location %q), want %d (%q)",
				c.path, resp.StatusCode, resp.Header.Get("Location"), c.status, c.location)
		}
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics → %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q, want text exposition v0.0.4", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := body.String()
	for _, want := range []string{
		"# TYPE muaa_broker_arrival_seconds histogram",
		"muaa_broker_arrival_seconds_count 1",
		`muaa_broker_arrival_stage_seconds_bucket{stage="scan",le="+Inf"}`,
		`muaa_broker_stripe_lock_total{stripe="`,
		"muaa_broker_threshold_g",
		`muaa_broker_threshold{delta="0"}`,
		"muaa_broker_gamma_min",
		"muaa_broker_arrivals_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDebugServer exercises the opt-in pprof listener: the index and a
// profile endpoint must answer on the debug address, and the main serving
// mux must NOT expose /debug/pprof/.
func TestDebugServer(t *testing.T) {
	a, err := newServer(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dbg := a.newDebugServer("127.0.0.1:0")
	ln, err := net.Listen("tcp", dbg.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = dbg.Serve(ln) }()
	t.Cleanup(func() { _ = dbg.Close() })
	dbgBase := "http://" + ln.Addr().String()

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(dbgBase + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s → %d", path, resp.StatusCode)
		}
	}

	base := startServer(t, 0, 0, 0)
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("serving port must not expose /debug/pprof/")
	}
}

// startDebugListener serves a's debug mux on an ephemeral port.
func startDebugListener(t *testing.T, a *app) string {
	t.Helper()
	dbg := a.newDebugServer("127.0.0.1:0")
	ln, err := net.Listen("tcp", dbg.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = dbg.Serve(ln) }()
	t.Cleanup(func() { _ = dbg.Close() })
	return "http://" + ln.Addr().String()
}

// TestDebugAudit drives traffic through a server with live auditing enabled
// and reads the quality report off the debug listener: the route serves the
// muaa-audit/1 schema, ?refresh forces a recompute, bad parameters
// get the uniform error envelope, and the audit gauges appear on /metrics.
func TestDebugAudit(t *testing.T) {
	cfg := testConfig()
	cfg.broker.AuditWindow, cfg.broker.AuditEvery = 64, time.Hour // recompute on demand only
	base, a := startServerOpts(t, cfg)
	dbgBase := startDebugListener(t, a)

	if code := postJSON(t, base+"/v1/campaigns",
		`{"loc":{"x":0.5,"y":0.5},"radius":0.15,"budget":20,"tags":[1,0,0.2]}`, nil); code != http.StatusCreated {
		t.Fatalf("POST /v1/campaigns → %d", code)
	}
	for i := 0; i < 10; i++ {
		if code := postJSON(t, base+"/v1/arrivals",
			`{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`, nil); code != http.StatusOK {
			t.Fatalf("arrival %d → %d", i, code)
		}
	}

	type reportBody struct {
		Schema         string  `json:"schema"`
		Mode           string  `json:"mode"`
		Source         string  `json:"source"`
		Arrivals       int     `json:"arrivals"`
		EmpiricalRatio float64 `json:"empirical_ratio"`
	}
	{
		const path = "/v1/debug/audit"
		var rep reportBody
		if code := getJSON(t, dbgBase+path, &rep); code != http.StatusOK {
			t.Fatalf("GET %s → %d", path, code)
		}
		if rep.Schema != "muaa-audit/1" || rep.Mode != "window" || rep.Source != "live" {
			t.Fatalf("GET %s report header: %+v", path, rep)
		}
		if rep.Arrivals != 10 {
			t.Fatalf("GET %s audited %d arrivals, want 10", path, rep.Arrivals)
		}
		if !(rep.EmpiricalRatio > 0 && rep.EmpiricalRatio <= 1) {
			t.Fatalf("GET %s ratio %g outside (0, 1]", path, rep.EmpiricalRatio)
		}
	}

	// ?refresh recomputes after more traffic lands.
	if code := postJSON(t, base+"/v1/arrivals",
		`{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`, nil); code != http.StatusOK {
		t.Fatalf("arrival → %d", code)
	}
	var rep reportBody
	if code := getJSON(t, dbgBase+"/v1/debug/audit?refresh=true", &rep); code != http.StatusOK || rep.Arrivals != 11 {
		t.Fatalf("refresh → %d, %d arrivals (want 11)", code, rep.Arrivals)
	}
	// Without refresh the stored report is served as-is.
	if code := getJSON(t, dbgBase+"/v1/debug/audit", &rep); code != http.StatusOK || rep.Arrivals != 11 {
		t.Fatalf("cached read → %d, %d arrivals", code, rep.Arrivals)
	}

	// Bad refresh value: enveloped 400.
	var env struct {
		Error struct{ Code string } `json:"error"`
	}
	if code := getJSON(t, dbgBase+"/v1/debug/audit?refresh=banana", &env); code != http.StatusBadRequest || env.Error.Code != "bad_request" {
		t.Fatalf("refresh=banana → %d %q", code, env.Error.Code)
	}
	// Non-GET: enveloped 405.
	if code := postJSON(t, dbgBase+"/v1/debug/audit", "{}", &env); code != http.StatusMethodNotAllowed || env.Error.Code != "method_not_allowed" {
		t.Fatalf("POST → %d %q", code, env.Error.Code)
	}

	// The live gauges are published on the serving port's /metrics.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{
		"muaa_broker_empirical_ratio",
		`muaa_broker_pacing_campaigns{utilization="0-25"}`,
		"muaa_build_info{",
	} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDebugAuditDisabled pins the two non-serving answers: 404 with code
// audit_disabled when the broker runs without an audit window, and 503
// unavailable while recovery is still in progress.
func TestDebugAuditDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.broker.AuditWindow = 0
	_, a := startServerOpts(t, cfg)
	dbgBase := startDebugListener(t, a)
	var env struct {
		Error struct{ Code string } `json:"error"`
	}
	if code := getJSON(t, dbgBase+"/v1/debug/audit", &env); code != http.StatusNotFound || env.Error.Code != "audit_disabled" {
		t.Fatalf("audit disabled → %d %q, want 404 audit_disabled", code, env.Error.Code)
	}

	cfg = testConfig()
	cfg.broker.DataDir, cfg.broker.AuditWindow = t.TempDir(), 16
	unbooted, err := newServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	dbgBase2 := startDebugListener(t, unbooted)
	if code := getJSON(t, dbgBase2+"/v1/debug/audit", &env); code != http.StatusServiceUnavailable || env.Error.Code != "unavailable" {
		t.Fatalf("during recovery → %d %q, want 503 unavailable", code, env.Error.Code)
	}
}

// TestServeRecoveryGate pins the boot-ordering contract: the listener is up
// before the broker finishes recovering, and until it does every broker
// endpoint — /healthz and /stats included — answers 503 with the uniform
// error envelope while /metrics already serves.
func TestServeRecoveryGate(t *testing.T) {
	cfg := testConfig()
	cfg.broker.DataDir = t.TempDir()
	a, err := newServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", a.srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = a.srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = a.shutdown(ctx)
	})
	base := "http://" + ln.Addr().String()

	// Broker not booted yet: the recovering window, held open deliberately.
	for _, path := range []string{"/healthz", "/v1/healthz", "/stats", "/v1/stats", "/campaigns", "/v1/arrivals"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s during recovery: decoding envelope: %v", path, err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || envelope.Error.Code != "unavailable" {
			t.Fatalf("GET %s during recovery → %d %q, want 503 unavailable", path, resp.StatusCode, envelope.Error.Code)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("GET %s during recovery: missing Retry-After", path)
		}
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics during recovery → %d, want 200 (metrics are live from boot)", resp.StatusCode)
	}

	// Recovery finishes: the same endpoints flip to serving.
	if err := a.boot(); err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, base+"/v1/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("GET /v1/healthz after recovery → %d %+v", code, health)
	}
	var stats struct {
		Arrivals int64 `json:"Arrivals"`
	}
	if code := getJSON(t, base+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats after recovery → %d", code)
	}
}

// TestServeRestartPersistence runs the operator workflow end to end over
// real HTTP: boot with a data directory, take traffic on the /v1 surface,
// shut down cleanly, boot a second server on the same directory, and
// require the recovered /v1/stats to match the pre-shutdown counters
// exactly.
func TestServeRestartPersistence(t *testing.T) {
	opts := testConfig()
	opts.broker.DataDir, opts.broker.Shards = t.TempDir(), 4

	type statsBody struct {
		Campaigns     int     `json:"Campaigns"`
		Arrivals      int64   `json:"Arrivals"`
		OffersPushed  int64   `json:"OffersPushed"`
		BudgetSpent   float64 `json:"BudgetSpent"`
		UtilityServed float64 `json:"UtilityServed"`
		GammaMin      float64 `json:"GammaMin"`
		GammaMax      float64 `json:"GammaMax"`
	}

	base, a := startServerOpts(t, opts)
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"loc":{"x":%g,"y":%g},"radius":0.15,"budget":30,"tags":[1,0,0.2]}`,
			0.3+0.1*float64(i), 0.3+0.1*float64(i))
		if code := postJSON(t, base+"/v1/campaigns", body, nil); code != http.StatusCreated {
			t.Fatalf("campaign %d → %d", i, code)
		}
	}
	for i := 0; i < 40; i++ {
		x := 0.3 + 0.1*float64(i%4)
		body := fmt.Sprintf(`{"loc":{"x":%g,"y":%g},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`, x, x)
		if code := postJSON(t, base+"/v1/arrivals", body, nil); code != http.StatusOK {
			t.Fatalf("arrival %d → %d", i, code)
		}
	}
	if code := postJSON(t, base+"/v1/campaigns/0/topup", `{"amount":7.5}`, nil); code != http.StatusOK {
		t.Fatalf("topup → %d", code)
	}
	var before statsBody
	if code := getJSON(t, base+"/v1/stats", &before); code != http.StatusOK {
		t.Fatalf("GET /v1/stats → %d", code)
	}
	if before.Arrivals != 40 || before.BudgetSpent <= 0 {
		t.Fatalf("pre-shutdown stats implausible: %+v", before)
	}

	// The clean shutdown main performs on SIGTERM: drain, flush, snapshot.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.shutdown(ctx); err != nil {
		t.Fatalf("clean shutdown: %v", err)
	}

	var logs syncBuffer
	base2, _, _ := startServerLogged(t, opts, slog.New(slog.NewJSONHandler(&logs, nil)))
	if ev := recoveryEvent(t, &logs); ev["snapshot_loaded"] != true || ev["records_replayed"] != 0.0 || ev["truncated"] != false {
		t.Errorf("clean restart should recover from the snapshot alone: %v", ev)
	}
	var after statsBody
	if code := getJSON(t, base2+"/v1/stats", &after); code != http.StatusOK {
		t.Fatalf("GET /v1/stats after restart → %d", code)
	}
	if after != before {
		t.Fatalf("stats changed across restart:\n before %+v\n after  %+v", before, after)
	}
	// And the recovered broker keeps serving: one more arrival must land.
	if code := postJSON(t, base2+"/v1/arrivals",
		`{"loc":{"x":0.3,"y":0.3},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`, nil); code != http.StatusOK {
		t.Fatalf("arrival after restart → %d", code)
	}
}

// TestShutdownDrainsBeforeClosingBroker pins app.shutdown's order: the
// server drains in-flight requests before the broker closes its log. An
// arrival whose body is still arriving when shutdown begins must be answered
// 200 and logged, and the final snapshot must hold it, so the next boot
// recovers it while replaying no record.
func TestShutdownDrainsBeforeClosingBroker(t *testing.T) {
	cfg := testConfig()
	cfg.broker.DataDir = t.TempDir()
	base, a := startServerOpts(t, cfg)
	if code := postJSON(t, base+"/v1/campaigns", `{"loc":{"x":0.5,"y":0.5},"radius":0.2,"budget":50,"tags":[1,0.2,0.3]}`, nil); code != http.StatusCreated {
		t.Fatalf("campaign → %d", code)
	}

	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"loc":{"x":0.51,"y":0.49},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.4],"hour":12}`
	head := fmt.Sprintf("POST /v1/arrivals HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", addr, len(body))
	if _, err := io.WriteString(conn, head+body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- a.shutdown(ctx)
	}()
	// Shutdown has begun once the listener refuses new connections.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting 5 s after shutdown began")
		}
	}
	if _, err := io.WriteString(conn, body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arrival in flight at shutdown → %d %s", resp.StatusCode, reply)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	var logs syncBuffer
	base2, _, _ := startServerLogged(t, cfg, slog.New(slog.NewJSONHandler(&logs, nil)))
	if ev := recoveryEvent(t, &logs); ev["snapshot_loaded"] != true || ev["records_replayed"] != 0.0 {
		t.Errorf("restart should recover from the final snapshot alone: %v", ev)
	}
	var stats struct{ Arrivals int64 }
	if code := getJSON(t, base2+"/v1/stats", &stats); code != http.StatusOK || stats.Arrivals != 1 {
		t.Fatalf("after restart: /v1/stats → %d, %d arrivals, want the one in flight at shutdown", code, stats.Arrivals)
	}
}

// TestDebugEndpointsRecoveryGate pins satellite contract #3: EVERY
// /v1/debug/* endpoint — traces, audit, timeseries, slo, explain, funnel,
// invariants — answers the uniform 503 `unavailable` envelope while WAL
// recovery is in progress, and flips to serving once boot stores the API
// pointer.
func TestDebugEndpointsRecoveryGate(t *testing.T) {
	cfg := armedConfig()
	cfg.broker.DataDir = t.TempDir()
	a, err := newServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = a.shutdown(ctx)
	})
	dbgBase := startDebugListener(t, a)

	const explainBody = `{"loc":{"x":0.5,"y":0.5},"capacity":1,"viewProb":0.5}`
	endpoints := []struct {
		method, path, body string
	}{
		{"GET", "/v1/debug/traces", ""},
		{"GET", "/v1/debug/audit", ""},
		{"GET", "/v1/debug/timeseries", ""},
		{"GET", "/v1/debug/slo", ""},
		{"POST", "/v1/debug/explain", explainBody},
		{"GET", "/v1/debug/campaigns/0/funnel", ""},
		{"GET", "/v1/debug/invariants", ""},
	}
	do := func(method, path, body string) *http.Response {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, dbgBase+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Broker not booted: the recovering window, held open deliberately.
	for _, ep := range endpoints {
		resp := do(ep.method, ep.path, ep.body)
		var env struct {
			Error struct{ Code string } `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s during recovery: decoding envelope: %v", ep.method, ep.path, err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != "unavailable" {
			t.Fatalf("%s %s during recovery → %d %q, want 503 unavailable",
				ep.method, ep.path, resp.StatusCode, env.Error.Code)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s %s during recovery: missing Retry-After", ep.method, ep.path)
		}
	}

	// Recovery finishes: every endpoint flips to serving. Campaign 0 must
	// exist for the funnel route to answer 200 rather than 404.
	if err := a.boot(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.b.Load().RegisterCampaignSpec(broker.CampaignSpec{Loc: geo.Point{X: 0.5, Y: 0.5}, Radius: 0.2, Budget: 25, Tags: []float64{1, 0, 0.2}}); err != nil {
		t.Fatal(err)
	}
	for _, ep := range endpoints {
		resp := do(ep.method, ep.path, ep.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s after recovery → %d, want 200", ep.method, ep.path, resp.StatusCode)
		}
	}
}

// TestDebugFunnelDisabled404 pins the envelope when the broker runs without
// funnel attribution (muaa-serve always enables it; an embedding broker.Config
// may not): the funnel route answers 404 funnel_disabled (not a bare 404),
// while the explain route keeps working — explain replays the scan directly
// and does not depend on funnel attribution.
func TestDebugFunnelDisabled404(t *testing.T) {
	cfg := testConfig()
	cfg.broker.Funnel.Enabled = false
	_, a := startServerOpts(t, cfg)
	dbgBase := startDebugListener(t, a)

	resp, err := http.Get(dbgBase + "/v1/debug/campaigns/0/funnel")
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error struct{ Code string } `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != "funnel_disabled" {
		t.Fatalf("funnel route with attribution off → %d %q, want 404 funnel_disabled",
			resp.StatusCode, env.Error.Code)
	}

	var rep struct {
		Gathered int `json:"gathered"`
	}
	if code := postJSON(t, dbgBase+"/v1/debug/explain",
		`{"loc":{"x":0.5,"y":0.5},"capacity":1,"viewProb":0.5}`, &rep); code != http.StatusOK {
		t.Fatalf("POST /v1/debug/explain with attribution off → %d, want 200", code)
	}
}

// TestDebugTimeseriesAndSLOServe drives the booted server and reads the two
// new debug documents end to end: the retention rings carry real series and
// the SLO document lists the default rule set.
func TestDebugTimeseriesAndSLOServe(t *testing.T) {
	base, a := startServerOpts(t, armedConfig())
	dbgBase := startDebugListener(t, a)

	if code := postJSON(t, base+"/v1/campaigns",
		`{"loc":{"x":0.5,"y":0.5},"radius":0.15,"budget":20,"tags":[1,0,0.2]}`, nil); code != http.StatusCreated {
		t.Fatalf("POST /v1/campaigns → %d", code)
	}
	a.sampler.SampleAt(time.Now())
	a.sampler.SampleAt(time.Now().Add(time.Second))

	var ts struct {
		Schema string `json:"schema"`
		Series []struct {
			Name string `json:"name"`
		} `json:"series"`
	}
	if code := getJSON(t, dbgBase+"/v1/debug/timeseries?series=muaa_broker_arrivals_total", &ts); code != http.StatusOK {
		t.Fatalf("GET /v1/debug/timeseries → %d", code)
	}
	if ts.Schema != "muaa-timeseries/1" || len(ts.Series) == 0 {
		t.Fatalf("timeseries document = %+v", ts)
	}

	var slo struct {
		Schema string `json:"schema"`
		Rules  []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"rules"`
	}
	if code := getJSON(t, dbgBase+"/v1/debug/slo", &slo); code != http.StatusOK {
		t.Fatalf("GET /v1/debug/slo → %d", code)
	}
	if slo.Schema != "muaa-slo/1" || len(slo.Rules) != 6 {
		t.Fatalf("slo document = %+v", slo)
	}
}

// TestDebugDisabledSubsystems pins the 404 envelopes when a debug subsystem
// is turned off by flags and — with the subsystems on — that the 400/405
// replies the three handlers write themselves are the serving API's error
// envelope: same struct, same two headers (obs.WriteError is the one writer;
// TestJSONContentType pins the serving side).
func TestDebugDisabledSubsystems(t *testing.T) {
	cfg := testConfig()
	cfg.trace.Capacity, cfg.sample.Every = 0, -1
	_, a := startServerOpts(t, cfg)
	dbgBase := startDebugListener(t, a)
	var env struct {
		Error struct{ Code string } `json:"error"`
	}
	for path, code := range map[string]string{
		"/v1/debug/traces":     "tracing_disabled",
		"/v1/debug/timeseries": "sampler_disabled",
		"/v1/debug/slo":        "slo_disabled",
	} {
		if got := getJSON(t, dbgBase+path, &env); got != http.StatusNotFound || env.Error.Code != code {
			t.Errorf("GET %s → %d %q, want 404 %q", path, got, env.Error.Code, code)
		}
	}

	base, on := startServerOpts(t, armedConfig())
	onBase := startDebugListener(t, on)
	for _, tc := range []struct {
		method, url string
		status      int
		code        string
	}{
		{http.MethodGet, base + "/v1/campaigns/999", http.StatusNotFound, "not_found"}, // the serving API's own
		{http.MethodGet, onBase + "/v1/debug/traces?min_ms=NaN", http.StatusBadRequest, "bad_request"},
		{http.MethodGet, onBase + "/v1/debug/traces?outcome=bogus", http.StatusBadRequest, "bad_request"},
		{http.MethodGet, onBase + "/v1/debug/traces?limit=-1", http.StatusBadRequest, "bad_request"},
		{http.MethodPost, onBase + "/v1/debug/traces", http.StatusMethodNotAllowed, "method_not_allowed"},
		{http.MethodGet, onBase + "/v1/debug/timeseries?range=banana", http.StatusBadRequest, "bad_request"},
		{http.MethodGet, onBase + "/v1/debug/timeseries?step=0", http.StatusBadRequest, "bad_request"},
		{http.MethodPost, onBase + "/v1/debug/timeseries", http.StatusMethodNotAllowed, "method_not_allowed"},
		{http.MethodPost, onBase + "/v1/debug/slo", http.StatusMethodNotAllowed, "method_not_allowed"},
	} {
		req, err := http.NewRequest(tc.method, tc.url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&env); err != nil {
			t.Errorf("%s %s: body %q is not the error envelope: %v", tc.method, tc.url, raw, err)
			continue
		}
		if resp.StatusCode != tc.status || env.Error.Code != tc.code || env.Error.Message == "" {
			t.Errorf("%s %s → %d %+v, want %d %q with a message", tc.method, tc.url, resp.StatusCode, env.Error, tc.status, tc.code)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("%s %s: Content-Type = %q", tc.method, tc.url, ct)
		}
		if ns := resp.Header.Get("X-Content-Type-Options"); ns != "nosniff" {
			t.Errorf("%s %s: X-Content-Type-Options = %q, want nosniff", tc.method, tc.url, ns)
		}
	}
}

// TestHeadFollowsGet: on both listeners, every route that serves GET serves
// HEAD with the same status and no body, and a method it refuses is told
// both. The hand-written method checks this replaced answered HEAD with 405
// on most GET routes and let it through on a few.
func TestHeadFollowsGet(t *testing.T) {
	base, a := startServerOpts(t, armedConfig())
	dbgBase := startDebugListener(t, a)
	if code := postJSON(t, base+"/v1/campaigns",
		`{"loc":{"x":0.5,"y":0.5},"radius":0.1,"budget":20,"tags":[1,0,0.2]}`, nil); code != http.StatusCreated {
		t.Fatalf("POST /v1/campaigns → %d", code)
	}

	do := func(method, url string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}
	urls := []string{base + "/healthz", base + "/v1/healthz", base + "/metrics", base + "/v1/metrics"}
	for _, route := range a.api.Load().Routes() {
		urls = append(urls, base+strings.ReplaceAll(route, "{id}", "0"))
	}
	for _, route := range debugMounts {
		urls = append(urls, dbgBase+strings.ReplaceAll(route, "{id}", "0"))
	}
	gets := 0
	for _, url := range urls {
		get, _ := do(http.MethodGet, url)
		if get.StatusCode == http.StatusMethodNotAllowed {
			continue // a POST-only route
		}
		gets++
		if get.StatusCode != http.StatusOK {
			t.Errorf("GET %s → %d, want 200", url, get.StatusCode)
		}
		head, body := do(http.MethodHead, url)
		if head.StatusCode != get.StatusCode || len(body) != 0 {
			t.Errorf("HEAD %s → %d with %d body bytes, want GET's %d and none", url, head.StatusCode, len(body), get.StatusCode)
		}
		refused, _ := do(http.MethodDelete, url)
		want := "GET, HEAD"
		if strings.HasSuffix(url, "/v1/campaigns") {
			want = "GET, HEAD, POST"
		}
		if refused.StatusCode != http.StatusMethodNotAllowed || refused.Header.Get("Allow") != want {
			t.Errorf("DELETE %s → %d Allow=%q, want 405 Allow=%q", url, refused.StatusCode, refused.Header.Get("Allow"), want)
		}
	}
	if gets != 15 {
		t.Errorf("%d GET routes probed, want 15 (4 probe spellings, 5 API, 6 debug)", gets)
	}
}
