package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"muaa/internal/trace"
)

// syncBuffer is a bytes.Buffer safe to share between the server's log
// goroutines and the test's assertions.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logLines decodes every JSON log line in the buffer.
func (b *syncBuffer) logLines(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// tracedServer boots a server with the flight recorder enabled and a
// JSON logger writing into the returned buffer, registers one campaign,
// and returns the base URL plus the app.
func tracedServer(t *testing.T) (string, *syncBuffer, *app) {
	t.Helper()
	buf := &syncBuffer{}
	logger := slog.New(slog.NewJSONHandler(buf, nil))
	cfg := testConfig()
	cfg.trace = trace.RecorderOptions{Capacity: 64}
	base, _, a := startServerLogged(t, cfg, logger)
	if code := postJSON(t, base+"/v1/campaigns",
		`{"loc":{"x":0.5,"y":0.5},"radius":0.1,"budget":20,"tags":[1,0,0.2]}`, nil); code != http.StatusCreated {
		t.Fatalf("POST /v1/campaigns → %d", code)
	}
	return base, buf, a
}

// wireTrace mirrors the /v1/debug/traces JSON schema (docs/OPERATIONS.md).
type wireTrace struct {
	TraceID      string `json:"trace_id"`
	SpanID       string `json:"span_id"`
	ParentSpanID string `json:"parent_span_id"`
	Name         string `json:"name"`
	DurationNS   int64  `json:"duration_ns"`
	Outcome      string `json:"outcome"`
	Spans        []struct {
		Name          string `json:"name"`
		StartUnixNano int64  `json:"start_unix_nano"`
		DurationNS    int64  `json:"duration_ns"`
	} `json:"spans"`
}

func getTraces(t *testing.T, url string) []wireTrace {
	t.Helper()
	var page struct {
		Traces []wireTrace `json:"traces"`
	}
	if code := getJSON(t, url, &page); code != http.StatusOK {
		t.Fatalf("GET %s → %d", url, code)
	}
	return page.Traces
}

// TestServeTraceparentEchoAndAccessLog drives an arrival with an incoming
// W3C traceparent and checks both halves of the request-scoped contract:
// the response echoes a traceparent continuing the caller's trace, and the
// access log carries the same trace_id alongside method/path/status/latency.
func TestServeTraceparentEchoAndAccessLog(t *testing.T) {
	base, buf, _ := tracedServer(t)

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodPost, base+"/v1/arrivals",
		strings.NewReader(`{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+callerTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/arrivals → %d", resp.StatusCode)
	}

	echoed := resp.Header.Get("Traceparent")
	tid, sid, ok := trace.ParseTraceparent(echoed)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", echoed)
	}
	if tid.String() != callerTrace {
		t.Fatalf("echoed trace id %s, want the caller's %s", tid, callerTrace)
	}
	if sid.String() == "00f067aa0ba902b7" {
		t.Fatal("server must mint its own span id, not echo the caller's")
	}

	var access map[string]any
	for _, line := range buf.logLines(t) {
		if line["msg"] == "http_request" && line["path"] == "/v1/arrivals" {
			access = line
		}
	}
	if access == nil {
		t.Fatalf("no http_request access log for /v1/arrivals in:\n%s", buf.String())
	}
	if access["trace_id"] != callerTrace {
		t.Errorf("access log trace_id = %v, want %s", access["trace_id"], callerTrace)
	}
	if access["method"] != "POST" || access["status"] != float64(http.StatusOK) {
		t.Errorf("access log method/status = %v/%v", access["method"], access["status"])
	}
	if ms, ok := access["duration_ms"].(float64); !ok || ms <= 0 {
		t.Errorf("access log duration_ms = %v", access["duration_ms"])
	}
}

// TestServeDebugTracesEndToEnd is the full operator loop: take traffic on
// the public surface, then pull the flight recorder over the debug listener
// and chase the slowest arrival through ?min_ms=. The retrieved trace must
// carry all four stage child spans, back to back, summing to the root.
func TestServeDebugTracesEndToEnd(t *testing.T) {
	base, _, a := tracedServer(t)
	for i := 0; i < 10; i++ {
		if code := postJSON(t, base+"/v1/arrivals",
			`{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`, nil); code != http.StatusOK {
			t.Fatalf("arrival %d → %d", i, code)
		}
	}

	dbg := a.newDebugServer("127.0.0.1:0")
	ln, err := net.Listen("tcp", dbg.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = dbg.Serve(ln) }()
	t.Cleanup(func() { _ = dbg.Close() })
	dbgBase := "http://" + ln.Addr().String()

	all := getTraces(t, dbgBase+"/v1/debug/traces")
	if len(all) != 10 {
		t.Fatalf("recorder holds %d traces, want 10", len(all))
	}
	slowest := all[0]
	for _, tr := range all {
		if tr.DurationNS > slowest.DurationNS {
			slowest = tr
		}
	}

	// The slow arrival is retrievable through the ?min_ms= filter (a hair
	// under its own duration, so float→duration conversion can't lose it).
	minMs := fmt.Sprintf("%.6f", float64(slowest.DurationNS-1000)/1e6)
	found := false
	for _, tr := range getTraces(t, dbgBase+"/v1/debug/traces?min_ms="+minMs) {
		if tr.DurationNS < slowest.DurationNS-1000 {
			t.Fatalf("min_ms=%s returned a %dns trace", minMs, tr.DurationNS)
		}
		if tr.TraceID == slowest.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("slowest trace %s not retrievable via min_ms=%s", slowest.TraceID, minMs)
	}

	// The retrieved trace is a complete span tree: root "arrival" plus the
	// four stage children partitioning it end to end.
	if slowest.Name != "arrival" {
		t.Fatalf("trace name = %s, want arrival", slowest.Name)
	}
	if slowest.Outcome != "offered" && slowest.Outcome != "no_offers" {
		t.Fatalf("trace outcome = %s", slowest.Outcome)
	}
	if len(slowest.Spans) != trace.NumStages {
		t.Fatalf("trace has %d child spans, want %d", len(slowest.Spans), trace.NumStages)
	}
	var sum int64
	for i, sp := range slowest.Spans {
		if sp.Name != trace.StageNames[i] {
			t.Errorf("span %d named %q, want %q", i, sp.Name, trace.StageNames[i])
		}
		sum += sp.DurationNS
	}
	if sum != slowest.DurationNS {
		t.Fatalf("stage spans sum to %dns, root span is %dns", sum, slowest.DurationNS)
	}

	// Outcome filtering works over HTTP too: the filtered view returns only
	// matching traces, and exactly as many as the unfiltered view contains.
	offered := 0
	for _, tr := range all {
		if tr.Outcome == "offered" {
			offered++
		}
	}
	if offered == 0 {
		t.Fatal("no offered arrivals in the recorder")
	}
	got := getTraces(t, dbgBase+"/v1/debug/traces?outcome=offered")
	if len(got) != offered {
		t.Fatalf("outcome=offered returned %d traces, want %d", len(got), offered)
	}
	for _, tr := range got {
		if tr.Outcome != "offered" {
			t.Fatalf("outcome=offered returned %+v", tr)
		}
	}
	if got := getTraces(t, dbgBase+"/v1/debug/traces?limit=3"); len(got) != 3 {
		t.Fatalf("limit=3 returned %d traces", len(got))
	}
}

// TestServeDebugListenerFailureKeepsServing is the regression test for the
// debug goroutine: a debug listener that cannot bind (port already taken)
// must degrade to a structured error log, not kill the serving process.
func TestServeDebugListenerFailureKeepsServing(t *testing.T) {
	base, buf, a := tracedServer(t)

	// Occupy a port, then point the debug listener at it.
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	a.startDebug(a.newDebugServer(taken.Addr().String()))

	deadline := time.Now().Add(5 * time.Second)
	for {
		if strings.Contains(buf.String(), "debug_listener_failed") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no debug_listener_failed log line in:\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The main surface is still serving after the debug listener died.
	if code := postJSON(t, base+"/v1/arrivals",
		`{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`, nil); code != http.StatusOK {
		t.Fatalf("arrival after debug-listener failure → %d", code)
	}
}

// TestServeNoGlobalLogOutput pins the structured-logging contract: nothing
// in the serving path writes through the stdlib global log logger — not
// request handling, not the debug-listener failure path, not shutdown.
func TestServeNoGlobalLogOutput(t *testing.T) {
	var buf syncBuffer
	prev := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(prev)

	base, _, a := tracedServer(t)
	if code := postJSON(t, base+"/v1/arrivals",
		`{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`, nil); code != http.StatusOK {
		t.Fatalf("arrival → %d", code)
	}
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	a.startDebug(a.newDebugServer(taken.Addr().String()))
	time.Sleep(50 * time.Millisecond) // let the failed listener goroutine log

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); out != "" {
		t.Fatalf("stdlib global log received output:\n%s", out)
	}
}

// TestMain lets the test binary stand in for muaa-serve: re-executed with
// MUAA_SERVE_TEST_MAIN set, it runs the real main — flags, the stderr sink,
// signal handling and all — so a test can watch the process from outside.
func TestMain(m *testing.M) {
	if os.Getenv("MUAA_SERVE_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestMainFlushesAccessLogBeforeExit runs the real process with stderr on a
// pipe: an INFO access-log line sits in the sink's buffer when SIGTERM
// arrives, and must be on the pipe, ahead of shutdown_complete, by the time
// the process is gone.
func TestMainFlushesAccessLogBeforeExit(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(os.Args[0], "-addr", addr, "-sample-every", "-1s")
	cmd.Env = append(os.Environ(), "MUAA_SERVE_TEST_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	logs := make(chan []byte, 1) // the one send below never blocks
	go func() {
		b, _ := io.ReadAll(stderr)
		logs <- b
	}()

	base := "http://" + addr
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, err := http.Get(base + "/v1/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
	}
	if code := postJSON(t, base+"/v1/arrivals",
		`{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`, nil); code != http.StatusOK {
		t.Fatalf("arrival → %d", code)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	out := <-logs // EOF: the process closed its stderr, i.e. exited
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit: %v\n%s", err, out)
	}

	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	arrival, complete := -1, -1
	for i, line := range lines {
		var m struct{ Msg, Path string }
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("non-JSON stderr line %q: %v", line, err)
		}
		switch {
		case m.Msg == "http_request" && m.Path == "/v1/arrivals":
			arrival = i
		case m.Msg == "shutdown_complete":
			complete = i
		}
	}
	if arrival < 0 || complete != len(lines)-1 || arrival > complete {
		t.Fatalf("want the arrival's http_request, then shutdown_complete last; got lines %d and %d of:\n%s",
			arrival, complete, out)
	}
}
