package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"muaa/internal/obs"
)

type tracesPage struct {
	Traces []struct {
		TraceID  string `json:"trace_id"`
		SpanID   string `json:"span_id"`
		Duration int64  `json:"duration_ns"`
		Outcome  string `json:"outcome"`
		Spans    []struct {
			Name          string `json:"name"`
			StartUnixNano int64  `json:"start_unix_nano"`
			DurationNS    int64  `json:"duration_ns"`
		} `json:"spans"`
	} `json:"traces"`
}

func getTraces(t *testing.T, h http.Handler, url string) (*http.Response, tracesPage) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	resp := rr.Result()
	var page tracesPage
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp, page
}

func TestTracesHandlerFiltersAndPagination(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 64})
	for i := 0; i < 20; i++ {
		tr := mkTrace(time.Duration(i+1)*time.Millisecond, OutcomeOffered, false)
		tr.Stages = [NumStages]time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond}
		r.Record(tr)
	}
	r.Record(mkTrace(100*time.Millisecond, OutcomeError, true))
	h := r.Handler()

	resp, page := getTraces(t, h, "/v1/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content-type = %q", ct)
	}
	if len(page.Traces) != 21 {
		t.Fatalf("unfiltered: %d traces, want 21", len(page.Traces))
	}
	// Newest first: the error trace was recorded last.
	if page.Traces[0].Outcome != OutcomeError {
		t.Fatalf("first trace outcome = %q, want error (newest-first)", page.Traces[0].Outcome)
	}
	// Child spans render with cumulative starts.
	tr := page.Traces[1]
	if len(tr.Spans) != NumStages {
		t.Fatalf("spans = %d, want %d", len(tr.Spans), NumStages)
	}
	wantNames := []string{"lock_wait", "gather", "scan", "commit"}
	at := tr.Spans[0].StartUnixNano
	for i, sp := range tr.Spans {
		if sp.Name != wantNames[i] {
			t.Fatalf("span %d name = %q, want %q", i, sp.Name, wantNames[i])
		}
		if sp.StartUnixNano != at {
			t.Fatalf("span %d start not cumulative: %d vs %d", i, sp.StartUnixNano, at)
		}
		at += sp.DurationNS
	}

	// min_ms filter.
	_, page = getTraces(t, h, "/v1/debug/traces?min_ms=10.5")
	for _, tr := range page.Traces {
		if tr.Duration < int64(10500*time.Microsecond) {
			t.Fatalf("min_ms leak: %d ns", tr.Duration)
		}
	}
	if len(page.Traces) != 11 { // 11..20 ms plus the 100 ms error trace
		t.Fatalf("min_ms=10.5: %d traces, want 11", len(page.Traces))
	}

	// outcome filter.
	_, page = getTraces(t, h, "/v1/debug/traces?outcome=error")
	if len(page.Traces) != 1 || page.Traces[0].Outcome != OutcomeError {
		t.Fatalf("outcome filter: %+v", page.Traces)
	}

	// pagination via limit.
	_, page = getTraces(t, h, "/v1/debug/traces?limit=5")
	if len(page.Traces) != 5 {
		t.Fatalf("limit=5: %d traces", len(page.Traces))
	}
	if page.Traces[0].Outcome != OutcomeError {
		t.Fatal("limit must keep newest-first ordering")
	}

	// Bad parameters produce the error envelope. NaN parses as a float and
	// compares false to everything, so it needs its own rejection path; an
	// unknown outcome used to silently filter everything out.
	for _, u := range []string{
		"/v1/debug/traces?min_ms=abc",
		"/v1/debug/traces?min_ms=-1",
		"/v1/debug/traces?min_ms=NaN",
		"/v1/debug/traces?min_ms=%2BInf",
		"/v1/debug/traces?limit=x",
		"/v1/debug/traces?outcome=bogus",
	} {
		resp, _ := getTraces(t, h, u)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", u, resp.StatusCode)
		}
		var env struct {
			Error struct{ Code, Message string } `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != "bad_request" {
			t.Fatalf("%s: bad envelope (%v): %+v", u, err, env)
		}
	}

	// Method guard.
	req := httptest.NewRequest(http.MethodPost, "/v1/debug/traces", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", rr.Code)
	}
}

func TestTracesHandlerEmpty(t *testing.T) {
	r := NewRecorder(RecorderOptions{})
	resp, page := getTraces(t, r.Handler(), "/v1/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if page.Traces == nil || len(page.Traces) != 0 {
		t.Fatalf("empty recorder should serve [], got %v", page.Traces)
	}
}

func TestMiddlewareEchoAndAccessLog(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	var seen *Request
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = FromContext(r.Context())
		w.WriteHeader(http.StatusCreated)
		io.WriteString(w, "ok")
	})
	h := Middleware(inner, logger, nil)

	req := httptest.NewRequest(http.MethodPost, "/v1/arrivals", strings.NewReader("{}"))
	req.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)

	if seen == nil {
		t.Fatal("handler saw no trace context")
	}
	if got := seen.TraceID.String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id = %s, want propagated id", got)
	}
	echo := rr.Result().Header.Get("Traceparent")
	tid, sid, ok := ParseTraceparent(echo)
	if !ok || tid != seen.TraceID || sid != seen.SpanID {
		t.Fatalf("echoed traceparent %q does not match request context", echo)
	}

	var line struct {
		Msg        string  `json:"msg"`
		TraceID    string  `json:"trace_id"`
		Method     string  `json:"method"`
		Path       string  `json:"path"`
		Status     int     `json:"status"`
		DurationMS float64 `json:"duration_ms"`
	}
	sc := bufio.NewScanner(&logBuf)
	if !sc.Scan() {
		t.Fatal("no access log line emitted")
	}
	if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
		t.Fatalf("access log not JSON: %v", err)
	}
	if line.Msg != "http_request" || line.TraceID != seen.TraceID.String() ||
		line.Method != http.MethodPost || line.Path != "/v1/arrivals" || line.Status != http.StatusCreated {
		t.Fatalf("access log fields wrong: %+v", line)
	}
}

func TestMiddlewareRecordsUnavailableArrivals(t *testing.T) {
	rec := NewRecorder(RecorderOptions{})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	h := Middleware(inner, nil, rec)

	for _, p := range []string{"/v1/arrivals", "/v1/arrivals:batch"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, p, nil))
	}
	// A 503 on a non-arrival path, the unrouted unversioned spellings
	// included, must not be recorded.
	for _, p := range []string{"/v1/stats", "/v1/arrivals:batchx", "/v1/campaigns/0/topup", "/arrivals", "/arrivals:batch"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, p, nil))
	}

	got := rec.Snapshot(Filter{Outcome: OutcomeUnavailable})
	if len(got) != 2 {
		t.Fatalf("unavailable traces = %d, want 2", len(got))
	}
	for _, tr := range got {
		if !tr.Anomalous {
			t.Fatal("unavailable trace must be anomalous")
		}
	}
	if all := rec.Snapshot(Filter{}); len(all) != 2 {
		t.Fatalf("total traces = %d, want 2 (non-arrival 503 recorded?)", len(all))
	}
}

// TestMiddlewareLogLevelSilencesAccessLog: Middleware hands the handler a
// Record itself rather than going through Logger.LogAttrs, so the level
// check is its own — -log-level warn must mean no http_request line.
func TestMiddlewareLogLevelSilencesAccessLog(t *testing.T) {
	var out bytes.Buffer
	sink := obs.NewLogHandler(&out, slog.LevelWarn)
	h := Middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), slog.New(sink), nil)
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("access log at -log-level warn: %s", out.String())
	}
}

// discardResponse is a ResponseWriter that costs nothing, so the harness
// below measures Middleware and not httptest.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// middlewareHarness returns one request's trip through Middleware around a
// handler that reads the trace context and writes a small body, logging to
// the process's own sink over io.Discard.
func middlewareHarness(tb testing.TB) func() {
	sink := obs.NewLogHandler(io.Discard, slog.LevelInfo)
	tb.Cleanup(func() { sink.Close() })
	body := []byte(`{"offers":[]}`)
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if FromContext(r.Context()) == nil {
			tb.Error("handler saw no trace context")
		}
		w.Write(body)
	}), slog.New(sink), NewRecorder(RecorderOptions{}))
	req := httptest.NewRequest(http.MethodPost, "/v1/arrivals", nil)
	req.RemoteAddr = "127.0.0.1:54321"
	w := &discardResponse{h: http.Header{}}
	return func() { h.ServeHTTP(w, req) }
}

// TestMiddlewareAllocs pins what a request costs in the middleware: the one
// requestState, Request.WithContext's copy, the traceparent string, and the
// Record's attr overflow (seven attrs, five inline).
func TestMiddlewareAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(200, middlewareHarness(t)); got > 6 {
		t.Fatalf("Middleware: %.0f allocs/request, want <= 6", got)
	}
}

func BenchmarkMiddleware(b *testing.B) {
	serve := middlewareHarness(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
