package broker

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"muaa/internal/geo"
	"muaa/internal/obs"
	"muaa/internal/trace"
	"muaa/internal/workload"
)

// TestReplayMatchesGoldenTraced replays the default golden stream through
// ArriveTraced with both metrics and the flight recorder live. The
// transcript must stay byte-identical to the uninstrumented golden —
// tracing, like metrics, is observation-only — and every arrival must have
// produced a recorded trace.
func TestReplayMatchesGoldenTraced(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderOptions{Capacity: 64})
	cfg := Config{AdTypes: workload.DefaultAdTypes(), Metrics: obs.NewRegistry(), Tracer: rec}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs, stream, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(32, 3000, 42))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, c := range specs {
		id, err := b.RegisterCampaign(c.Loc, c.Radius, c.Budget, c.Tags)
		if err != nil {
			t.Fatal(err)
		}
		writeRegisterLine(&sb, id, c)
	}
	arrivals := 0
	arrive := func(a Arrival) ([]Offer, error) {
		arrivals++
		return b.ArriveTraced(a, newTraceReq())
	}
	for i, op := range stream {
		applyTranscriptOpVia(t, b, &sb, i, op, arrive)
	}
	writeFinalLines(&sb, b)
	got := sb.String()

	want, err := os.ReadFile(filepath.Join("testdata", "replay_default.golden"))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	if got != string(want) {
		t.Fatalf("tracing changed the replay transcript (%d vs %d bytes, first diff at byte %d)",
			len(got), len(want), firstDiff(got, string(want)))
	}
	if arrivals == 0 {
		t.Fatal("workload contained no arrivals")
	}
	if traces := rec.Snapshot(trace.Filter{}); len(traces) == 0 {
		t.Fatal("no traces recorded during the traced replay")
	}
}

// newTraceReq mints a fresh request context on the heap; production callers
// get theirs from trace.FromContext, which hands out the pointer Middleware
// stored.
func newTraceReq() *trace.Request {
	r := trace.StartRequest("")
	return &r
}

func tracedBroker(t *testing.T, rec *trace.Recorder, reg *obs.Registry) *Broker {
	t.Helper()
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Metrics: reg, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		x := 0.1 + 0.1*float64(i)
		if _, err := b.RegisterCampaign(geo.Point{X: x, Y: x}, 0.2, 50, []float64{1, 0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestArriveTracedSpanSums pins the trace geometry: the four stage child
// spans are cut from the same clock reads as the root, so they must sum to
// the root duration exactly (not ±ε — the stages partition the interval).
func TestArriveTracedSpanSums(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderOptions{})
	b := tracedBroker(t, rec, nil)
	for i := 0; i < 50; i++ {
		_, err := b.ArriveTraced(Arrival{
			Loc: geo.Point{X: 0.3, Y: 0.3}, Capacity: 2, ViewProb: 0.8,
			Interests: []float64{1, 0.5, 1}, Hour: 12,
		}, newTraceReq())
		if err != nil {
			t.Fatal(err)
		}
	}
	traces := rec.Snapshot(trace.Filter{})
	if len(traces) != 50 {
		t.Fatalf("recorded %d traces, want 50", len(traces))
	}
	for _, tr := range traces {
		if !tr.Staged {
			t.Fatal("arrival trace missing stage spans")
		}
		var sum time.Duration
		for i := 0; i < trace.NumStages; i++ {
			sum += tr.Stages[i]
		}
		if sum != tr.Duration {
			t.Fatalf("stage spans sum to %v, root span is %v", sum, tr.Duration)
		}
		if tr.Duration <= 0 {
			t.Fatal("non-positive root span")
		}
		if tr.StripeHi < tr.StripeLo {
			t.Fatalf("bad stripe range [%d, %d]", tr.StripeLo, tr.StripeHi)
		}
	}
}

// TestArriveTracedOutcomes checks outcome classification and that tracing
// is inert when either the recorder or the request context is absent.
func TestArriveTracedOutcomes(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderOptions{})
	b := tracedBroker(t, rec, nil)

	// Validation error → outcome "error", anomalous.
	if _, err := b.ArriveTraced(Arrival{Capacity: -1}, newTraceReq()); err == nil {
		t.Fatal("negative capacity accepted")
	}
	// Far-away arrival → no candidates → "no_offers".
	if _, err := b.ArriveTraced(Arrival{
		Loc: geo.Point{X: 0.99, Y: 0.01}, Capacity: 1, ViewProb: 0.5,
		Interests: []float64{1, 0, 1}, Hour: 1,
	}, newTraceReq()); err != nil {
		t.Fatal(err)
	}
	// In-range arrival → "offered".
	if _, err := b.ArriveTraced(Arrival{
		Loc: geo.Point{X: 0.3, Y: 0.3}, Capacity: 2, ViewProb: 0.9,
		Interests: []float64{1, 0.5, 1}, Hour: 12,
	}, newTraceReq()); err != nil {
		t.Fatal(err)
	}

	errs := rec.Snapshot(trace.Filter{Outcome: trace.OutcomeError})
	if len(errs) != 1 || !errs[0].Anomalous || errs[0].Error == "" {
		t.Fatalf("error outcome not traced correctly: %+v", errs)
	}
	if got := rec.Snapshot(trace.Filter{Outcome: trace.OutcomeNoOffers}); len(got) != 1 {
		t.Fatalf("no_offers traces = %d, want 1", len(got))
	}
	offered := rec.Snapshot(trace.Filter{Outcome: trace.OutcomeOffered})
	if len(offered) != 1 || offered[0].Offers == 0 {
		t.Fatalf("offered outcome not traced correctly: %+v", offered)
	}

	// Nil request → nothing recorded.
	before := len(rec.Snapshot(trace.Filter{}))
	if _, err := b.Arrive(Arrival{
		Loc: geo.Point{X: 0.3, Y: 0.3}, Capacity: 1, ViewProb: 0.5,
		Interests: []float64{1, 0, 1}, Hour: 3,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ArriveTraced(Arrival{
		Loc: geo.Point{X: 0.3, Y: 0.3}, Capacity: 1, ViewProb: 0.5,
		Interests: []float64{1, 0, 1}, Hour: 3,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if after := len(rec.Snapshot(trace.Filter{})); after != before {
		t.Fatalf("untraced arrivals recorded traces: %d -> %d", before, after)
	}
}

// TestArrivalExemplar checks the histogram → trace join: with tracing and
// metrics both on, the arrival-latency histogram exposes the slowest traced
// observation's trace ID as an exemplar comment, cleared per scrape.
func TestArrivalExemplar(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderOptions{})
	reg := obs.NewRegistry()
	b := tracedBroker(t, rec, reg)
	req := newTraceReq()
	if _, err := b.ArriveTraced(Arrival{
		Loc: geo.Point{X: 0.3, Y: 0.3}, Capacity: 2, ViewProb: 0.8,
		Interests: []float64{1, 0.5, 1}, Hour: 12,
	}, req); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	reg.WriteText(&sb)
	text := sb.String()
	marker := "# EXEMPLAR muaa_broker_arrival_seconds"
	if !strings.Contains(text, marker) {
		t.Fatalf("no arrival exemplar in exposition:\n%s", text)
	}
	if !strings.Contains(text, fmt.Sprintf("trace_id=%q", req.TraceID.String())) {
		t.Fatal("exemplar does not carry the arrival's trace id")
	}

	// Consumed by the scrape: a second scrape with no new traffic has none.
	sb.Reset()
	reg.WriteText(&sb)
	if strings.Contains(sb.String(), marker) {
		t.Fatal("exemplar survived the scrape window")
	}
}

// TestArriveTracedAllocs pins the traced single submission's allocation
// budget: the one trace.Trace the flight recorder retains, and nothing else —
// the window of one and its result stay on the caller's frame.
func TestArriveTracedAllocs(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderOptions{})
	b := tracedBroker(t, rec, nil)
	// Far from every campaign: no offers, so the nil result buffer never grows
	// and the count is the tracing overhead alone.
	a := Arrival{Loc: geo.Point{X: 0.99, Y: 0.01}, Capacity: 1, ViewProb: 0.5,
		Interests: []float64{1, 0, 1}, Hour: 1}
	req := newTraceReq()
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := b.ArriveTraced(a, req); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("traced arrival allocates %v times per call, want at most 1 (the retained trace)", allocs)
	}
}
