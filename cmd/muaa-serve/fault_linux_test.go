package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"muaa/internal/wal"
)

// faultSegment puts /dev/full over the descriptor of dir's active WAL
// segment, found under /proc/self/fd, so its next write fails with ENOSPC:
// a real kernel error, with no seam in the server.
func faultSegment(t *testing.T, dir string) {
	t.Helper()
	dir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { full.Close() })
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range fds {
		path, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || filepath.Dir(path) != dir || filepath.Ext(path) != ".log" {
			continue
		}
		fd, err := strconv.Atoi(e.Name())
		if err == nil {
			err = syscall.Dup3(int(full.Fd()), fd, syscall.O_CLOEXEC)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no open WAL segment in %s", dir)
}

// TestServeReadOnlyAfterDiskFault: once the write-ahead log met a disk
// fault, every mutation route answers 503 unavailable with Retry-After, and
// each refused arrival request is traced once, as unavailable;
// /v1/healthz answers 503 with the fault's message, while the reads and the
// debug endpoints keep serving.
func TestServeReadOnlyAfterDiskFault(t *testing.T) {
	cfg := testConfig()
	cfg.broker.DataDir, cfg.broker.WAL.Sync, cfg.trace.Capacity = t.TempDir(), wal.SyncEveryRecord, 16
	base, a := startServerOpts(t, cfg)
	dbg := startDebugListener(t, a)
	campaign := `{"loc":{"x":0.5,"y":0.5},"radius":0.2,"budget":50,"tags":[1,0,0.2],"billing":{"model":"cpc","reserve_ecpm":1,"event_rate":0.5}}`
	arrival := `{"loc":{"x":0.5,"y":0.5},"capacity":1,"viewProb":0.7,"interests":[1,0,0.2]}`
	if code := postJSON(t, base+"/v1/campaigns", campaign, nil); code != http.StatusCreated {
		t.Fatalf("register → %d", code)
	}
	var served struct {
		Offers []struct {
			OfferID uint64 `json:"offer_id"`
		}
	}
	if code := postJSON(t, base+"/v1/arrivals", arrival, &served); code != http.StatusOK || len(served.Offers) != 1 {
		t.Fatalf("arrival → %d %+v", code, served)
	}
	faultSegment(t, cfg.broker.DataDir)
	for _, rt := range []struct{ path, body string }{
		{"/v1/campaigns", campaign}, // meets the fault
		{"/v1/campaigns/0/topup", `{"amount":1}`},
		{"/v1/campaigns/0/pause", `{"paused":true}`},
		{"/v1/arrivals", arrival},
		{"/v1/arrivals:batch", "[" + arrival + "," + arrival + "]"},
		{"/v1/events", fmt.Sprintf(`{"offer_id":%d}`, served.Offers[0].OfferID)},
	} {
		resp, err := http.Post(base+rt.path, "application/json", strings.NewReader(rt.body))
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Error struct{ Code, Message string }
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != "unavailable" ||
			resp.Header.Get("Retry-After") == "" {
			t.Errorf("POST %s → %d %+v (Retry-After %q), want 503 unavailable with Retry-After",
				rt.path, resp.StatusCode, env, resp.Header.Get("Retry-After"))
		}
	}
	var health struct {
		Error struct{ Code, Message string }
	}
	if code := getJSON(t, base+"/v1/healthz", &health); code != http.StatusServiceUnavailable ||
		!strings.Contains(health.Error.Message, syscall.ENOSPC.Error()) {
		t.Errorf("/v1/healthz → %d %+v, want 503 naming the fault", code, health)
	}
	var traces struct{ Traces []struct{ Outcome string } }
	if code := getJSON(t, dbg+"/v1/debug/traces", &traces); code != http.StatusOK || len(traces.Traces) != 3 ||
		traces.Traces[0].Outcome != "unavailable" || traces.Traces[1].Outcome != "unavailable" {
		t.Errorf("traces → %d %+v, want the served arrival's and one unavailable per refused request", code, traces.Traces)
	}
	for _, url := range []string{base + "/v1/stats", base + "/v1/campaigns", dbg + "/v1/debug/invariants"} {
		var body any
		if code := getJSON(t, url, &body); code != http.StatusOK {
			t.Errorf("GET %s on a read-only broker → %d, want 200", url, code)
		}
	}
}
