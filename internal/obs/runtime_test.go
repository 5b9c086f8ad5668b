package obs

import (
	"strings"
	"testing"
)

func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "latency", []float64{0.001, 0.01, 0.1})

	if _, ok := h.TakeExemplar(); ok {
		t.Fatal("fresh histogram has an exemplar")
	}
	h.ObserveShardExemplar(0, 0.002, "trace-a")
	h.ObserveShardExemplar(1, 0.050, "trace-b") // larger: must win
	h.ObserveShardExemplar(2, 0.004, "trace-c") // smaller: must lose

	e, ok := h.TakeExemplar()
	if !ok || e.TraceID != "trace-b" || e.Value != 0.050 {
		t.Fatalf("exemplar = %+v ok=%v, want trace-b@0.05", e, ok)
	}
	if _, ok := h.TakeExemplar(); ok {
		t.Fatal("TakeExemplar did not clear the slot")
	}

	// Every exemplar observation still lands in the histogram proper.
	if snap := h.Snapshot(); snap.Count != 3 {
		t.Fatalf("count = %d, want 3", snap.Count)
	}

	// The exposition renders the exemplar as a comment line (invisible to
	// the v0.0.4 parser) and consumes it.
	h.ObserveShardExemplar(0, 0.020, "trace-d")
	var sb strings.Builder
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), `# EXEMPLAR lat_seconds 0.02 trace_id="trace-d"`) {
		t.Fatalf("exemplar comment missing:\n%s", sb.String())
	}
	samples, _ := parseExposition(t, sb.String())
	if samples[`lat_seconds_count`] != 4 {
		t.Fatalf("parser saw count %g, want 4", samples["lat_seconds_count"])
	}
	sb.Reset()
	r.WriteText(&sb)
	if strings.Contains(sb.String(), "# EXEMPLAR") {
		t.Fatal("exemplar not consumed by scrape")
	}
}

func TestRegisterRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	var sb strings.Builder
	r.WriteText(&sb)
	samples, types := parseExposition(t, sb.String())

	for name, typ := range map[string]string{
		"go_goroutines":            "gauge",
		"go_gomaxprocs":            "gauge",
		"go_heap_alloc_bytes":      "gauge",
		"go_gc_cycles_total":       "counter",
		"go_gc_last_pause_seconds": "gauge",

		"muaa_process_uptime_seconds": "gauge",
	} {
		if types[name] != typ {
			t.Errorf("%s type = %q, want %q", name, types[name], typ)
		}
		if _, ok := samples[name]; !ok {
			t.Errorf("%s missing from exposition", name)
		}
	}
	if samples["go_goroutines"] < 1 {
		t.Errorf("go_goroutines = %g", samples["go_goroutines"])
	}
	if samples["go_gomaxprocs"] < 1 {
		t.Errorf("go_gomaxprocs = %g", samples["go_gomaxprocs"])
	}
	if samples["go_heap_alloc_bytes"] <= 0 {
		t.Errorf("go_heap_alloc_bytes = %g", samples["go_heap_alloc_bytes"])
	}
	if v := samples["muaa_process_uptime_seconds"]; v < 0 || v > 3600 {
		t.Errorf("muaa_process_uptime_seconds = %g, want a small non-negative value", v)
	}
}
