package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"muaa/internal/broker"
	"muaa/internal/workload"
)

// debugMounts are the six endpoints newDebugServer mounts beside pprof.
var debugMounts = []string{
	"/v1/debug/traces", "/v1/debug/timeseries", "/v1/debug/slo", "/v1/debug/audit",
	"/v1/debug/explain", "/v1/debug/campaigns/{id}/funnel",
}

// twoSpellings are the only paths served both with and without /v1: the
// probe endpoints, whose unversioned form is what load-balancer and scraper
// configs carry. Callers in this tree: bench/server.go polls /healthz for
// readiness, bench/run.go scrapes /metrics, and the CI smokes in
// .github/workflows/ci.yml curl both.
var twoSpellings = []string{"/healthz", "/metrics"}

// TestAPIDocCoversRoutes enumerates every HTTP route this process serves —
// the broker API via its Routes accessor plus the server-level metrics,
// health and debug endpoints — and fails if docs/API.md does not mention
// one. The doc advertises itself as complete; this test makes that claim
// structural: registering a route without documenting it breaks the build.
func TestAPIDocCoversRoutes(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatalf("missing docs/API.md: %v", err)
	}
	text := string(doc)

	b, err := broker.New(broker.Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		t.Fatal(err)
	}
	routes := broker.NewAPI(b).Routes()
	if len(routes) == 0 {
		t.Fatal("API reports no routes")
	}
	// Server-level routes mounted outside the broker API (see newServingMux
	// and newDebugServer).
	routes = append(routes, "/v1/metrics", "/v1/healthz", "/debug/pprof/")
	routes = append(routes, debugMounts...)
	for _, route := range routes {
		if !strings.Contains(text, route) {
			t.Errorf("docs/API.md does not mention route %q", route)
		}
	}

	// The doc's conventions must track the code's actual limits.
	for _, needle := range []string{"1 MiB", "1024", "traceparent", "arrival_batch"} {
		if !strings.Contains(text, needle) {
			t.Errorf("docs/API.md lost the %q contract", needle)
		}
	}
}

// TestOneSpellingPerRoute holds "every operation exists once" to the tree:
// each API route and debug mount is routed at its /v1 path, and the same
// path with /v1 stripped is the ordinary enveloped 404 on its listener.
// twoSpellings lists the only exceptions.
func TestOneSpellingPerRoute(t *testing.T) {
	base, a := startServerOpts(t, serverOpts{
		traceCapacity: 16, auditWindow: 16, auditEvery: time.Hour, slo: "on", funnel: true,
	})
	dbgBase := startDebugListener(t, a)

	status := func(method, url string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct {
			Error struct{ Code string } `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&env) // a 2xx body has no envelope
		return resp.StatusCode, env.Error.Code
	}
	check := func(listener, route string) {
		t.Helper()
		path := strings.ReplaceAll(route, "{id}", "0")
		// OPTIONS is served by no route, so a routed path answers 405 and
		// only the catch-all answers 404.
		if code, _ := status(http.MethodOptions, listener+path); code != http.StatusMethodNotAllowed {
			t.Errorf("OPTIONS %s → %d, want 405 (not routed?)", path, code)
		}
		bare := strings.TrimPrefix(path, "/v1")
		if code, env := status(http.MethodGet, listener+bare); code != http.StatusNotFound || env != "not_found" {
			t.Errorf("GET %s → %d %q, want the 404 not_found envelope", bare, code, env)
		}
	}
	for _, route := range a.api.Load().Routes() {
		check(base, route)
	}
	for _, route := range debugMounts {
		check(dbgBase, route)
	}
	for _, p := range twoSpellings {
		for _, path := range []string{p, "/v1" + p} {
			if code, _ := status(http.MethodGet, base+path); code != http.StatusOK {
				t.Errorf("GET %s → %d, want 200", path, code)
			}
		}
	}
}
