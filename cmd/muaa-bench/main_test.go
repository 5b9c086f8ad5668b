package main

import (
	"bytes"
	"encoding/json"
	"fmt"
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

func TestRunBrokerScaling(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "broker", 0.02, false, false, false, 2, 1, 1, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Broker scaling") || !strings.Contains(out, "ops/sec") {
		t.Errorf("broker sweep output malformed:\n%s", out)
	}
	buf.Reset()
	if err := run(&buf, "broker", 0.02, true, false, false, 2, 1, 1, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "goroutines,ops,seconds,ops_per_sec,speedup") {
		t.Errorf("broker CSV output malformed:\n%s", buf.String())
	}
	if err := run(&buf, "broker", 0.02, false, true, false, 2, 1, 1, ""); err == nil {
		t.Error("-exp broker with -chart must be rejected")
	}
}

// TestRunSlate drives the standalone slate sweep: four arms (serial
// baseline plus slot capacities 1, 2, 4 on the forced slate path), each
// with positive measurements, in both text and -json form.
func TestRunSlate(t *testing.T) {
	var buf bytes.Buffer
	path := filepath.Join(t.TempDir(), "slate.json")
	if err := run(&buf, "slate", 0.02, false, false, false, 2, 1, 1, path); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Slate scan") || !strings.Contains(out, "slate a=4") {
		t.Errorf("slate sweep output malformed:\n%s", out)
	}
	var doc struct {
		Experiment string `json:"experiment"`
		Points     []struct {
			Series   string  `json:"series"`
			Label    string  `json:"label"`
			Capacity int     `json:"capacity"`
			NsPerOp  float64 `json:"ns_per_op"`
			Speedup  float64 `json:"speedup"`
		} `json:"points"`
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Experiment != "slate" {
		t.Fatalf("experiment %q", doc.Experiment)
	}
	wantArms := []struct {
		series   string
		label    string
		capacity int
	}{
		{"broker_slate", "serial", 1}, {"broker_slate", "slate a=1", 1},
		{"broker_slate", "slate a=2", 2}, {"broker_slate", "slate a=4", 4},
		// The sampler-overhead A/B rides the tail of the slate sweep, the
		// same way slate rides the tail of -exp broker.
		{"obs_sample", "off", 0}, {"obs_sample", "every=5s", 0}, {"obs_sample", "every=50ms", 0},
	}
	if len(doc.Points) != len(wantArms) {
		t.Fatalf("slate sweep produced %d points, want %d", len(doc.Points), len(wantArms))
	}
	for i, p := range doc.Points {
		if p.Series != wantArms[i].series || p.Label != wantArms[i].label || p.Capacity != wantArms[i].capacity {
			t.Errorf("slate point %d malformed: %+v", i, p)
		}
		if p.NsPerOp <= 0 || p.Speedup <= 0 {
			t.Errorf("slate point %d has empty measurements: %+v", i, p)
		}
	}
	buf.Reset()
	if err := run(&buf, "slate", 0.02, true, false, false, 2, 1, 1, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "arm,capacity,rounds,arrivals") {
		t.Errorf("slate CSV output malformed:\n%s", buf.String())
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
	if err := run(&buf, "bogus", 0.02, false, false, false, 2, 1, 1, ""); err == nil {
		t.Error("unknown experiment must be rejected")
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

// TestRunJSONOutput pins the muaa-bench/1 document schema: a broker sweep
// with -json writes a decodable trajectory file whose points carry the
// throughput and latency fields, and the flag is rejected outside the perf
// experiments.
func TestRunJSONOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	if err := run(&buf, "broker", 0.02, false, false, false, 2, 1, 1, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
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
		Points     []struct {
			Series      string  `json:"series"`
			Label       string  `json:"label"`
			Goroutines  int     `json:"goroutines"`
			BatchSize   int     `json:"batch_size"`
			Capacity    int     `json:"capacity"`
			Ops         int     `json:"ops"`
			NsPerOp     float64 `json:"ns_per_op"`
			BestNsPerOp float64 `json:"best_ns_per_op"`
			OpsPerSec   float64 `json:"ops_per_sec"`
			Speedup     float64 `json:"speedup"`
			P99Us       float64 `json:"p99_us"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("bench JSON does not decode: %v\n%s", err, raw)
	}
	if doc.Schema != "muaa-bench/1" || doc.Experiment != "broker" {
		t.Fatalf("schema/experiment = %q/%q", doc.Schema, doc.Experiment)
	}
	if _, err := time.Parse(time.RFC3339, doc.Timestamp); err != nil {
		t.Errorf("timestamp %q not RFC3339: %v", doc.Timestamp, err)
	}
	if doc.GoVersion == "" || doc.GOMAXPROCS < 1 || doc.Scale != 0.02 || doc.Seed != 1 {
		t.Errorf("run config not captured: %+v", doc)
	}
	// -exp broker emits the goroutine-scaling sweep followed by the
	// batch-ingestion and slate sweeps; all ride the same schema with their
	// own per-series fields.
	var scaling, batch, slate, obsn int
	for i, p := range doc.Points {
		switch p.Series {
		case "broker_scaling":
			if p.Label == "" || p.Goroutines != 1<<i {
				t.Errorf("scaling point %d malformed: %+v", i, p)
			}
			if p.Ops <= 0 || p.NsPerOp <= 0 || p.OpsPerSec <= 0 || p.Speedup <= 0 || p.P99Us <= 0 {
				t.Errorf("scaling point %d has empty measurements: %+v", i, p)
			}
			scaling++
		case "broker_batch":
			if batch == 0 {
				if p.Label != "serial" || p.BatchSize != 0 {
					t.Errorf("first batch point must be the serial baseline: %+v", p)
				}
			} else if p.Label == "" || p.BatchSize <= 0 {
				t.Errorf("batch point %d malformed: %+v", i, p)
			}
			if p.Ops <= 0 || p.NsPerOp <= 0 || p.BestNsPerOp <= 0 || p.Speedup <= 0 {
				t.Errorf("batch point %d has empty measurements: %+v", i, p)
			}
			batch++
		case "broker_slate":
			if slate == 0 && p.Label != "serial" {
				t.Errorf("first slate point must be the serial baseline: %+v", p)
			}
			if p.Capacity <= 0 || p.Ops <= 0 || p.NsPerOp <= 0 || p.BestNsPerOp <= 0 || p.Speedup <= 0 {
				t.Errorf("slate point %d has empty measurements: %+v", i, p)
			}
			slate++
		case "obs_sample":
			if obsn == 0 && p.Label != "off" {
				t.Errorf("first obs point must be the sampler-off baseline: %+v", p)
			}
			if p.Ops <= 0 || p.NsPerOp <= 0 || p.BestNsPerOp <= 0 || p.Speedup <= 0 {
				t.Errorf("obs point %d has empty measurements: %+v", i, p)
			}
			obsn++
		default:
			t.Errorf("point %d has unknown series %q", i, p.Series)
		}
	}
	if scaling < 2 {
		t.Fatalf("scaling sweep produced %d points, want the 1- and 2-goroutine rows", scaling)
	}
	if batch < 2 {
		t.Fatalf("batch sweep produced %d points, want serial plus windowed arms", batch)
	}
	if slate != 4 {
		t.Fatalf("slate sweep produced %d points, want serial plus a_i ∈ {1,2,4} arms", slate)
	}
	if obsn != 3 {
		t.Fatalf("obs sweep produced %d points, want off + 5s + 50ms arms", obsn)
	}

	// The WAL A/B emits the mean/best/overhead arm rows under the same schema.
	walPath := filepath.Join(t.TempDir(), "wal.json")
	if err := run(&buf, "wal", 0.02, false, false, false, 2, 1, 1, walPath); err != nil {
		t.Fatal(err)
	}
	var walDoc struct {
		Points []struct {
			Series      string  `json:"series"`
			Label       string  `json:"label"`
			NsPerOp     float64 `json:"ns_per_op"`
			BestNsPerOp float64 `json:"best_ns_per_op"`
		} `json:"points"`
	}
	walRaw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(walRaw, &walDoc); err != nil {
		t.Fatal(err)
	}
	if len(walDoc.Points) != 3 {
		t.Fatalf("WAL A/B produced %d points, want 3 arms", len(walDoc.Points))
	}
	for _, p := range walDoc.Points {
		if p.Series != "wal_overhead" || p.NsPerOp <= 0 || p.BestNsPerOp <= 0 {
			t.Errorf("WAL point malformed: %+v", p)
		}
	}

	// The audit replay sweep emits one row per WAL size with the solve
	// timings and the achieved ratio.
	auditPath := filepath.Join(t.TempDir(), "audit.json")
	if err := run(&buf, "audit", 0.02, false, false, false, 2, 1, 1, auditPath); err != nil {
		t.Fatal(err)
	}
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
	auditRaw, err := os.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
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

	// -json outside the perf experiments is a flag error.
	if err := run(&buf, "fig8", 0.02, false, false, false, 2, 1, 1, path); err == nil {
		t.Error("-json with a paper experiment must be rejected")
	}
}

// TestPerformanceDocMatchesBenchFile holds the batch table in
// docs/PERFORMANCE.md to the committed BENCH_broker.json it claims to quote:
// every broker_batch point must appear as a row with the same ns/arrival
// (rounded to the nanosecond) and speedup (two decimals), and no other rows.
func TestPerformanceDocMatchesBenchFile(t *testing.T) {
	root := filepath.Join("..", "..")
	raw, err := os.ReadFile(filepath.Join(root, "BENCH_broker.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{} // batch column → the rest of the row
	for _, p := range doc.Points {
		if p.Series != "broker_batch" {
			continue
		}
		want[strings.TrimPrefix(p.Label, "batch=")] = fmt.Sprintf("| %.0f | %.2f× |", p.NsPerOp, p.Speedup)
	}
	if len(want) == 0 {
		t.Fatal("BENCH_broker.json holds no broker_batch points")
	}

	md, err := os.ReadFile(filepath.Join(root, "docs", "PERFORMANCE.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(md), "| batch | ns/arrival | speedup vs serial |\n|---|---|---|\n")
	if !ok {
		t.Fatal("docs/PERFORMANCE.md: batch table header not found")
	}
	rows := 0
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| ") {
			break
		}
		batch, rest, _ := strings.Cut(strings.TrimPrefix(line, "| "), " ")
		rows++
		if rest != want[batch] {
			t.Errorf("docs/PERFORMANCE.md batch row %q: doc says %q, BENCH_broker.json says %q", batch, rest, want[batch])
		}
	}
	if rows != len(want) {
		t.Errorf("docs/PERFORMANCE.md batch table has %d rows, BENCH_broker.json %d broker_batch points", rows, len(want))
	}
}
