package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"muaa/internal/broker"
	"muaa/internal/obs"
	"muaa/internal/slo"
	"muaa/internal/trace"
	"muaa/internal/workload"
)

func TestSparkline(t *testing.T) {
	got := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if got != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp sparkline = %q", got)
	}
	if got := sparkline([]float64{5, 5, 5}, 8); got != "▁▁▁" {
		t.Errorf("flat sparkline = %q", got)
	}
	if got := sparkline([]float64{math.NaN(), 1, 2}, 8); got != " ▁█" {
		t.Errorf("NaN sparkline = %q", got)
	}
	// Width clips to the newest values.
	if got := sparkline([]float64{9, 9, 0, 8}, 2); got != "▁█" {
		t.Errorf("clipped sparkline = %q", got)
	}
	if got := sparkline(nil, 8); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
}

// TestFunnelRows: grouping, gathered-descending order, and dominant-gate
// extraction from ring series names, each read at its newest point.
func TestFunnelRows(t *testing.T) {
	funnel := func(campaign, disposition string, pts ...obs.Point) obs.Series {
		return obs.Series{
			Name:   `muaa_funnel_campaign_total{campaign="` + campaign + `",disposition="` + disposition + `"}:rate`,
			Points: pts,
		}
	}
	at := func(v float64) obs.Point { return obs.Point{Unix: 100, Value: v} }
	rows := funnelRows([]obs.Series{
		funnel("9", "gathered", obs.Point{Unix: 95, Value: 999}, at(30)), // newest point wins
		funnel("9", "offered", at(5)),
		funnel("9", "unaffordable", at(25)),
		funnel("10", "gathered", at(80)),
		funnel("10", "offered", at(80)),
		funnel("2", "gathered", at(30)),
		funnel("2", "below_threshold", at(20)),
		funnel("2", "tag_mismatch", at(10)),
		funnel("4", "gathered", at(math.NaN())), // first sample of a new ring: no rate yet
		// Campaign 77 left the broker's top-N one sample ago: its ring still
		// answers, but not for this window.
		funnel("77", "gathered", obs.Point{Unix: 95, Value: 500}),
		{Name: `muaa_other_metric{campaign="1"}:rate`, Points: []obs.Point{at(99)}},
	})
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4: %+v", len(rows), rows)
	}
	if rows[0].campaign != "10" || rows[0].gathered != 80 || rows[0].offered != 80 {
		t.Errorf("row 0 = %+v, want campaign 10 gathered 80 offered 80", rows[0])
	}
	// Equal gathered ties break on numeric-aware campaign id order.
	if rows[1].campaign != "2" || rows[2].campaign != "9" {
		t.Errorf("tie order = %s, %s, want 2, 9", rows[1].campaign, rows[2].campaign)
	}
	if rows[1].topGate != "below_threshold" || rows[1].topGateV != 20 {
		t.Errorf("row 1 gate = %s %g, want below_threshold 20", rows[1].topGate, rows[1].topGateV)
	}
	if rows[2].gathered != 30 || rows[2].topGate != "unaffordable" || rows[2].topGateV != 25 {
		t.Errorf("row 2 = %+v, want gathered 30, gate unaffordable 25", rows[2])
	}
	if rows[3].campaign != "4" || rows[3].gathered != 0 {
		t.Errorf("row 3 = %+v, want campaign 4 with a null rate read as 0", rows[3])
	}
	if got := funnelRows([]obs.Series{{Name: "muaa_broker_arrivals_total:rate", Points: []obs.Point{at(1)}}}); len(got) != 0 {
		t.Errorf("no funnel series should yield no rows, got %+v", got)
	}
}

// fixture is a muaa-serve in miniature: a real instrumented broker behind the
// serving port, and a debug port serving a real obs.Sampler and slo.Watchdog
// over the same registry, ticked by a synthetic clock.
type fixture struct {
	t       *testing.T
	reg     *obs.Registry
	sampler *obs.Sampler
	c       *client
	clock   time.Time
}

// newFixture starts both ports. The serving port fails the test on any
// request for the Prometheus exposition: the dashboard renders the rings. A
// nil debug handler stands for a debug port that is down.
func newFixture(t *testing.T, debug func(fx *fixture, wd *slo.Watchdog) http.Handler) *fixture {
	t.Helper()
	fx := &fixture{t: t, reg: obs.NewRegistry(), clock: time.Unix(1_700_000_000, 0)}
	obs.RegisterRuntimeMetrics(fx.reg)
	tracer := trace.NewRecorder(trace.RecorderOptions{Capacity: 16})
	b, err := broker.New(broker.Config{
		AdTypes: workload.DefaultAdTypes(),
		Shards:  2,
		Metrics: fx.reg,
		Tracer:  tracer,
		Funnel:  broker.FunnelConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	api := broker.NewAPI(b)
	serve := httptest.NewServer(trace.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/metrics") {
			t.Errorf("dashboard requested %s", r.URL.Path)
		}
		api.ServeHTTP(w, r)
	}), nil, tracer))
	t.Cleanup(serve.Close)

	var wd *slo.Watchdog
	fx.sampler = obs.NewSampler(fx.reg, obs.SamplerOptions{
		OnSample: func(now time.Time) { wd.EvalAt(now) },
	})
	cfg, err := slo.ParseConfig("goroutines-max=0,min-samples=1")
	if err != nil {
		t.Fatal(err)
	}
	wd = slo.New(fx.sampler, fx.reg, nil, cfg.Rules())

	debugURL := "http://127.0.0.1:1"
	if debug != nil {
		srv := httptest.NewServer(debug(fx, wd))
		t.Cleanup(srv.Close)
		debugURL = srv.URL
	}
	fx.c = &client{base: serve.URL, debugBase: debugURL, hc: &http.Client{Timeout: 2 * time.Second}}

	fx.post("/v1/campaigns", `{"loc":{"x":0.5,"y":0.5},"radius":0.2,"budget":500,"tags":[1,0.2,0.3]}`)
	fx.post("/v1/campaigns", `{"loc":{"x":0.5,"y":0.6},"radius":0.2,"budget":500,"tags":[0.1,1,0.3]}`)
	return fx
}

// debugPort is the debug listener with the sampler and the watchdog on.
func debugPort(fx *fixture, wd *slo.Watchdog) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/debug/timeseries", fx.sampler.Handler())
	mux.Handle("/v1/debug/slo", wd.Handler())
	return mux
}

func (fx *fixture) post(path, body string) {
	fx.t.Helper()
	resp, err := http.Post(fx.c.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		fx.t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		fx.t.Fatalf("POST %s → %d", path, resp.StatusCode)
	}
}

// window serves n traced arrivals and closes a 5 s sample window over them.
func (fx *fixture) window(n int) {
	fx.t.Helper()
	for i := 0; i < n; i++ {
		fx.post("/v1/arrivals", fmt.Sprintf(
			`{"loc":{"x":0.5,"y":%g},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.4],"hour":12}`,
			0.5+0.01*float64(i%10)))
	}
	fx.clock = fx.clock.Add(5 * time.Second)
	fx.sampler.SampleAt(fx.clock)
}

// ringNewest is the server's own answer for a series' newest point.
func (fx *fixture) ringNewest(name string) float64 {
	for _, sr := range fx.sampler.Query(obs.TimeSeriesQuery{Prefixes: []string{name}}).Series {
		if sr.Name == name {
			return sr.Points[len(sr.Points)-1].Value
		}
	}
	return math.NaN()
}

// lineWith returns the frame's first line containing s.
func lineWith(t *testing.T, frame, s string) string {
	t.Helper()
	for _, line := range strings.Split(frame, "\n") {
		if strings.Contains(line, s) {
			return line
		}
	}
	t.Fatalf("frame has no line containing %q\n%s", s, frame)
	return ""
}

// TestDashboardEndToEnd: against a real sampler and watchdog, every row of
// the frame prints the newest point of its ring, the LATENCY row and the SLO
// table agree on arrival p99, the funnel shows window rates, and the serving
// port never sees a scrape (the fixture fails the test if it does).
func TestDashboardEndToEnd(t *testing.T) {
	fx := newFixture(t, debugPort)
	fx.window(20)
	fx.window(40) // 40 arrivals / 5 s
	f := fx.c.poll()
	var buf bytes.Buffer
	f.render(&buf, fx.c.base, false)
	out := buf.String()

	for _, want := range []string{
		"muaa-top", "THROUGHPUT", "LATENCY", "STAGES", "ALGORITHM", "RUNTIME", "FUNNEL", "BROKER", "BILLING", "SLO",
		"sampled every 5s", "campaigns 2", "arrivals 60",
		"1 FIRING", "fired 1", "WARMUP", // ratio: no audit in the fixture, so no valid sample
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[") {
		t.Error("plain frame contains ANSI escapes")
	}
	if len(f.notes) != 0 {
		t.Errorf("healthy poll left notes: %v", f.notes)
	}

	// Every row is its ring's newest point, as the server holds it.
	live := 0
	for _, pn := range panels {
		for _, r := range pn.rows {
			v := fx.ringNewest(r.series)
			if !math.IsNaN(v) {
				live++
			}
			line := lineWith(t, out, "  "+fmt.Sprintf("%-14s", r.label))
			if want := fmtVal(v*r.scale, r.format); !strings.Contains(line, " "+want+" ") {
				t.Errorf("row %q shows %q, ring %s holds %s", r.label, line, r.series, want)
			}
		}
	}
	if live < 9 { // 2 throughput, arrival p99, 4 stages, 2 runtime; no WAL, audit or controller here
		t.Errorf("only %d rows had a live ring behind them: the fixture proves too little", live)
	}
	if got := fx.ringNewest("muaa_broker_arrivals_total:rate"); got != 8 {
		t.Errorf("arrivals rate = %g, want 8 (40 arrivals / 5 s)", got)
	}

	// One number, one derivation: the LATENCY row prints the value the
	// arrival_p99 rule reports in the same /v1/debug/slo document.
	var ruleValue float64
	for _, r := range f.slo.Rules {
		if r.Name == "arrival_p99" && r.Value != nil {
			ruleValue = *r.Value
		}
	}
	if ruleValue == 0 || ruleValue != newest(f.values("muaa_broker_arrival_seconds:p99")) {
		t.Fatalf("arrival_p99 rule value %g, ring newest %g", ruleValue, newest(f.values("muaa_broker_arrival_seconds:p99")))
	}
	if line := lineWith(t, out, "arrival p99"); !strings.Contains(line, fmt.Sprintf("%.3f ms", ruleValue*1e3)) {
		t.Errorf("LATENCY row %q does not show the rule's %g s", line, ruleValue)
	}
	if line := lineWith(t, out, "arrival_p99"); !strings.Contains(line, strconv.FormatFloat(ruleValue, 'g', 4, 64)+" > ") {
		t.Errorf("SLO row %q does not show %g", line, ruleValue)
	}

	// The funnel is per-second over the last window: campaign 0 covers all 40
	// arrivals of it.
	if line := lineWith(t, out, "campaign 0 "); !strings.Contains(line, "gathered      8.0") {
		t.Errorf("funnel row %q, want gathered 8.0/s", line)
	}

	// Color mode emits escapes (and nothing else changes structurally).
	buf.Reset()
	f.render(&buf, fx.c.base, true)
	if !strings.Contains(buf.String(), "\x1b[") {
		t.Error("color frame has no ANSI escapes")
	}
}

// TestPollingKeepsExemplars: the slowest-trace exemplar of a scrape window
// belongs to whoever scrapes /metrics next; ten dashboard polls leave it there.
func TestPollingKeepsExemplars(t *testing.T) {
	fx := newFixture(t, debugPort)
	fx.window(5)
	fx.window(5)
	for i := 0; i < 10; i++ {
		fx.c.poll()
	}
	rec := httptest.NewRecorder()
	fx.reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "# EXEMPLAR muaa_broker_arrival_seconds") {
		t.Fatal("the scrape after ten dashboard polls carries no # EXEMPLAR line")
	}
}

// TestDashboardDegradesWithoutDebugPort: with the debug port down, or the
// sampler switched off, the frame is the stats lines plus one line of reason.
func TestDashboardDegradesWithoutDebugPort(t *testing.T) {
	samplerOff := func(*fixture, *slo.Watchdog) http.Handler {
		// What muaa-serve -sample-every -1 mounts (newDebugServer).
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			obs.WriteError(w, http.StatusNotFound, "sampler_disabled",
				"time-series sampling disabled; start muaa-serve with -sample-every >= 0")
		})
	}
	for name, tc := range map[string]struct {
		debug  func(*fixture, *slo.Watchdog) http.Handler
		reason string
	}{
		"port down":   {nil, "! timeseries: dial tcp 127.0.0.1:1: "},
		"sampler off": {samplerOff, "! timeseries: sampler_disabled: time-series sampling disabled; start muaa-serve with -sample-every >= 0"},
	} {
		t.Run(name, func(t *testing.T) {
			fx := newFixture(t, tc.debug)
			fx.window(3)
			var buf bytes.Buffer
			if err := runOnce(fx.c, &buf); err != nil {
				t.Fatalf("-once with the serving port up: %v", err)
			}
			out := buf.String()
			for _, want := range []string{"campaigns 2   arrivals 3", "BILLING", tc.reason} {
				if !strings.Contains(out, want) {
					t.Errorf("frame missing %q\n%s", want, out)
				}
			}
			if n := strings.Count(out, "\n! "); n != 1 {
				t.Errorf("%d reason lines, want 1\n%s", n, out)
			}
			for _, gone := range []string{"THROUGHPUT", "STAGES", "SLO"} {
				if strings.Contains(out, gone) {
					t.Errorf("frame renders %s without rings\n%s", gone, out)
				}
			}
		})
	}
}

// TestRunOnce drives the -once path end to end.
func TestRunOnce(t *testing.T) {
	fx := newFixture(t, debugPort)
	fx.window(5)
	var buf bytes.Buffer
	if err := runOnce(fx.c, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "FIRING") || !strings.Contains(out, "THROUGHPUT") {
		t.Errorf("-once frame incomplete:\n%s", out)
	}
	if strings.Contains(out, "\x1b[") {
		t.Error("-once frame contains ANSI escapes")
	}
}

// TestRunOnceUnreachable: neither port answering is an error (exit 1), not a
// blank frame with exit 0.
func TestRunOnceUnreachable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-once", "-addr", "http://127.0.0.1:1", "-debug-addr", "http://127.0.0.1:1"}, &stdout, &stderr)
	if code != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "cannot reach") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}

// TestRunRefusesBadEvery: a zero or negative cadence once panicked inside
// time.NewTicker; it is a flag error.
func TestRunRefusesBadEvery(t *testing.T) {
	for _, every := range []string{"0", "-2s"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-every", every, "-addr", "http://127.0.0.1:1"}, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), errEvery.Error()) {
			t.Errorf("-every %s: exit %d, stderr %q", every, code, stderr.String())
		}
	}
}
