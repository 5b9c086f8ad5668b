package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "a2", 0.02, false, false, false, 2, 1, 1, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Threshold Base g") {
		t.Errorf("missing experiment output:\n%s", buf.String())
	}
}

func TestRunFormats(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig8", 0.02, true, false, false, 2, 1, 1, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "id,x,label") {
		t.Error("CSV output malformed")
	}
	buf.Reset()
	if err := run(&buf, "fig8", 0.02, false, true, false, 2, 1, 1, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "█") && !strings.Contains(buf.String(), "▏") {
		t.Error("chart output has no bars")
	}
	buf.Reset()
	if err := run(&buf, "fig8", 0.02, false, false, true, 2, 1, 1, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "| n |") {
		t.Error("markdown output malformed")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig8", 0, false, false, false, 2, 1, 1, ""); err == nil {
		t.Error("scale 0 must be rejected")
	}
	if err := run(&buf, "fig8", 2, false, false, false, 2, 1, 1, ""); err == nil {
		t.Error("scale > 1 must be rejected")
	}
	if err := run(&buf, "fig8", 0.02, true, true, false, 2, 1, 1, ""); err == nil {
		t.Error("conflicting formats must be rejected")
	}
	// The retired speed arms are plain unknown ids: no special case names them.
	for _, id := range []string{"bogus", "broker", "wal", "slate"} {
		err := run(&buf, id, 0.02, false, false, false, 2, 1, 1, "")
		if err == nil || !strings.Contains(err.Error(), "unknown id") {
			t.Errorf("-exp %s: err = %v, want the generic unknown-id error", id, err)
		}
	}
	if err := run(&buf, "audit", 0.02, false, true, false, 2, 1, 1, ""); err == nil {
		t.Error("-exp audit with -chart must be rejected")
	}
}

func TestRunAllScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	var buf bytes.Buffer
	if err := run(&buf, "all", 0.02, false, false, false, 2, 1, 1, ""); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"E1", "Fig3", "Fig8", "A1", "A7"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("all-run missing %s", frag)
		}
	}
}

// TestRunJSONOutput pins the muaa-bench/1 document schema: an audit sweep
// with -json writes a decodable file that records the run's configuration,
// and the flag is rejected outside the two quality studies.
func TestRunJSONOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	auditPath := filepath.Join(t.TempDir(), "audit.json")
	if err := run(&buf, "audit", 0.02, false, false, false, 2, 1, 1, auditPath); err != nil {
		t.Fatal(err)
	}
	auditRaw, err := os.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema     string  `json:"schema"`
		Experiment string  `json:"experiment"`
		Timestamp  string  `json:"timestamp"`
		GoVersion  string  `json:"go_version"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		Scale      float64 `json:"scale"`
		Seed       int64   `json:"seed"`
	}
	if err := json.Unmarshal(auditRaw, &doc); err != nil {
		t.Fatalf("bench JSON does not decode: %v\n%s", err, auditRaw)
	}
	if doc.Schema != "muaa-bench/1" || doc.Experiment != "audit" {
		t.Fatalf("schema/experiment = %q/%q", doc.Schema, doc.Experiment)
	}
	if _, err := time.Parse(time.RFC3339, doc.Timestamp); err != nil {
		t.Errorf("timestamp %q not RFC3339: %v", doc.Timestamp, err)
	}
	if doc.GoVersion == "" || doc.GOMAXPROCS < 1 || doc.Scale != 0.02 || doc.Seed != 1 {
		t.Errorf("run config not captured: %+v", doc)
	}

	// The audit replay sweep emits one row per WAL size with the solve
	// timings and the achieved ratio.
	var auditDoc struct {
		Points []struct {
			Series         string  `json:"series"`
			Ops            int     `json:"ops"`
			WALBytes       int64   `json:"wal_bytes"`
			Arrivals       int     `json:"arrivals"`
			GreedyMs       float64 `json:"greedy_ms"`
			ReconMs        float64 `json:"recon_ms"`
			EmpiricalRatio float64 `json:"empirical_ratio"`
		} `json:"points"`
	}
	if err := json.Unmarshal(auditRaw, &auditDoc); err != nil {
		t.Fatal(err)
	}
	if len(auditDoc.Points) != 3 {
		t.Fatalf("audit sweep produced %d points, want 3 sizes", len(auditDoc.Points))
	}
	for i, p := range auditDoc.Points {
		if p.Series != "audit_replay" || p.Ops <= 0 || p.WALBytes <= 0 || p.Arrivals <= 0 {
			t.Errorf("audit point %d malformed: %+v", i, p)
		}
		if p.GreedyMs <= 0 || p.ReconMs <= 0 {
			t.Errorf("audit point %d missing timings: %+v", i, p)
		}
		if !(p.EmpiricalRatio > 0 && p.EmpiricalRatio <= 1) {
			t.Errorf("audit point %d ratio %g outside (0, 1]", i, p.EmpiricalRatio)
		}
		if i > 0 && p.WALBytes <= auditDoc.Points[i-1].WALBytes {
			t.Errorf("audit sweep WAL sizes not increasing: %+v", auditDoc.Points)
		}
	}

	// -json outside the two quality studies is a flag error.
	if err := run(&buf, "fig8", 0.02, false, false, false, 2, 1, 1, path); err == nil {
		t.Error("-json with a paper experiment must be rejected")
	}
}

// TestCommittedQualityFilesMatchHead holds BENCH_audit.json and
// BENCH_pacing.json to the code that claims to have produced them: each
// experiment is re-run at the scale and seed its committed file records, and
// every clock-free field — all of them pure functions of (scale, seed) —
// must come out equal. A change that moves a ratio, an arrival count or the
// WAL footprint fails here until the files are regenerated with the commands
// in the package comment, so the numbers the docs quote cannot go stale.
func TestCommittedQualityFilesMatchHead(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs both quality studies at the committed scale (~3 s)")
	}
	// clockFree drops what a stopwatch wrote.
	clockFree := func(points []benchPoint) []benchPoint {
		out := append([]benchPoint(nil), points...)
		for i := range out {
			out[i].NsPerOp, out[i].GreedyMs, out[i].ReconMs = 0, 0, 0
		}
		return out
	}
	load := func(path string) benchDoc {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc benchDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return doc
	}
	for _, exp := range []string{"audit", "pacing"} {
		t.Run(exp, func(t *testing.T) {
			name := "BENCH_" + exp + ".json"
			committed := load(filepath.Join("..", "..", name))
			if committed.Experiment != exp || len(committed.Points) == 0 {
				t.Fatalf("%s: experiment %q with %d points", name, committed.Experiment, len(committed.Points))
			}
			fresh := filepath.Join(t.TempDir(), name)
			if err := run(io.Discard, exp, committed.Scale, false, false, false, 0, 1, committed.Seed, fresh); err != nil {
				t.Fatal(err)
			}
			got, want := clockFree(load(fresh).Points), clockFree(committed.Points)
			if len(got) != len(want) {
				t.Fatalf("%s holds %d points, HEAD produces %d", name, len(want), len(got))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s point %d is stale:\n committed %+v\n HEAD      %+v", name, i, want[i], got[i])
				}
			}
		})
	}
}
