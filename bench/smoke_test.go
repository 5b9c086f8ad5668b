package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload end to end against a real muaa-serve child
// with a one-second window: build, spawn, register, verify against the
// twin, warm up, measure, check the server's counters, and for durable the
// kill -9 and five recoveries. It asserts the run is correct and complete,
// not that it is fast.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns muaa-serve; skipped with -short")
	}
	if l, err := net.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Skipf("no loopback listener: %v", err)
	} else {
		l.Close()
	}
	h, _, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	h.outDir = t.TempDir()
	defer reapAll()
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			res := h.runWorkload(s, 42, 1, false, 1)
			if !res.Correct {
				t.Fatalf("run failed: %s", res.Error)
			}
			sent, failed := res.attempted()
			if sent == 0 || failed != 0 {
				t.Errorf("%d operations, %d failed", sent, failed)
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.name]; !ok || !(m.Value > 0) || m.Unit != d.unit {
					t.Errorf("metric %s = %+v, want a positive value in %s", d.name, m, d.unit)
				}
			}
			for _, p := range []string{"setup", "verify", "warmup", "window"} {
				if res.Phases[p] == nil || res.Phases[p].Succeeded == 0 {
					t.Errorf("phase %s recorded nothing", p)
				}
			}
			if s.durable {
				if len(res.Restart) != restarts || res.Metrics["recover.records"].Value == 0 {
					t.Errorf("recovery: restarts %v, records %v", res.Restart, res.Metrics["recover.records"].Value)
				}
			}
			log, err := os.ReadFile(filepath.Join(h.outDir, s.name+".server.log"))
			if err != nil || len(log) == 0 {
				t.Errorf("server log: %d bytes, %v", len(log), err)
			}
		})
	}
	if children.live != nil && len(children.live) != 0 {
		t.Errorf("%d server children still tracked after the runs", len(children.live))
	}
}

// TestSmokeTraced runs the traced path once, on the cheapest workload.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns muaa-serve; skipped with -short")
	}
	h, _, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	h.outDir = t.TempDir()
	defer reapAll()
	s, _ := specByName("batch")
	res := h.runWorkload(s, 42, 2, true, 1)
	if !res.Correct {
		t.Fatalf("traced run failed: %s", res.Error)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("per-layer metric %s was not reported", d.name)
		}
	}
	if res.Metrics["trace.joined"].Value == 0 || res.Metrics["ladder.top_ns"].Value == 0 || res.Metrics["api.json_ns"].Value == 0 {
		t.Errorf("trace.joined %v, ladder.top_ns %v, api.json_ns %v: all must be non-zero on batch",
			res.Metrics["trace.joined"].Value, res.Metrics["ladder.top_ns"].Value, res.Metrics["api.json_ns"].Value)
	}
	f, err := os.Open(filepath.Join(h.outDir, "batch.spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	dec := json.NewDecoder(f)
	for dec.More() {
		var sp span
		if err := dec.Decode(&sp); err != nil {
			t.Fatal(err)
		}
		names[sp.Name]++
	}
	for _, want := range []string{"bench.run", "loadgen.encode", "loadgen.verify", "bench.window", "client.roundtrip", "server.arrival_batch", "server.scan", "ladder.round", "ladder.api"} {
		if names[want] == 0 {
			t.Errorf("no %s span in the file (have %v)", want, names)
		}
	}
}
