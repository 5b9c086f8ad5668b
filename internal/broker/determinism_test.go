package broker

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muaa/internal/obs"
	"muaa/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the determinism golden files")

// replayTranscript replays a fixed seeded workload single-threaded and
// renders every observable output — per-arrival offers, top-up/pause results,
// final campaign states and counters — with %v formatting (shortest exact
// float representation), so two broker implementations agree on the
// transcript iff their admission decisions are bit-identical.
func replayTranscript(t *testing.T, cfg Config, campaigns int, ops int, seed int64) string {
	t.Helper()
	return replayTranscriptVia(t, cfg, campaigns, ops, seed,
		func(b *Broker) func(Arrival) ([]Offer, error) { return b.Arrive })
}

// replayTranscriptVia is replayTranscript with the arrival entry point
// injected (given the built broker), so the explain-interleaving test can
// wrap Arrive while replaying the identical stream.
func replayTranscriptVia(t *testing.T, cfg Config, campaigns int, ops int, seed int64,
	arriveOf func(*Broker) func(Arrival) ([]Offer, error)) string {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs, stream, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(campaigns, ops, seed))
	if err != nil {
		t.Fatal(err)
	}
	arrive := arriveOf(b)
	var sb strings.Builder
	for _, c := range specs {
		id, err := b.RegisterCampaign(c.Loc, c.Radius, c.Budget, c.Tags)
		if err != nil {
			t.Fatal(err)
		}
		writeRegisterLine(&sb, id, c)
	}
	for i, op := range stream {
		applyTranscriptOpVia(t, b, &sb, i, op, arrive)
	}
	writeFinalLines(&sb, b)
	return sb.String()
}

func writeRegisterLine(sb *strings.Builder, id int32, c workload.BrokerCampaign) {
	fmt.Fprintf(sb, "register %d loc=%v r=%v budget=%v\n", id, c.Loc, c.Radius, c.Budget)
}

// applyTranscriptOp runs one workload op against the broker and appends
// its observable outcome to the transcript (shared by the plain and the
// crash-recovery replay harnesses).
func applyTranscriptOp(t *testing.T, b *Broker, sb *strings.Builder, i int, op workload.BrokerOp) {
	t.Helper()
	applyTranscriptOpVia(t, b, sb, i, op, b.Arrive)
}

// applyTranscriptOpVia is applyTranscriptOp with the arrival entry point
// injected, so the traced-replay test can drive ArriveTraced through the
// identical harness.
func applyTranscriptOpVia(t *testing.T, b *Broker, sb *strings.Builder, i int, op workload.BrokerOp,
	arrive func(Arrival) ([]Offer, error)) {
	t.Helper()
	switch op.Kind {
	case workload.OpArrival:
		offers, err := arrive(arrivalOf(op))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		writeArriveLine(sb, i, offers)
	case workload.OpTopUp:
		if err := b.TopUp(op.Campaign, op.Amount); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		fmt.Fprintf(sb, "topup %d c=%d amount=%v\n", i, op.Campaign, op.Amount)
	case workload.OpPause:
		if err := b.SetPaused(op.Campaign, op.Paused); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		fmt.Fprintf(sb, "pause %d c=%d paused=%v\n", i, op.Campaign, op.Paused)
	case workload.OpStats:
		st := b.Stats()
		fmt.Fprintf(sb, "stats %d campaigns=%d arrivals=%d offers=%d utility=%v spent=%v gmin=%v gmax=%v g=%v\n",
			i, st.Campaigns, st.Arrivals, st.OffersPushed, st.UtilityServed,
			st.BudgetSpent, st.GammaMin, st.GammaMax, st.G)
	}
}

// writeArriveLine renders one arrival's transcript line; shared with the
// batched replay harness, which emits lines at batch-flush time.
func writeArriveLine(sb *strings.Builder, i int, offers []Offer) {
	fmt.Fprintf(sb, "arrive %d n=%d", i, len(offers))
	for _, o := range offers {
		fmt.Fprintf(sb, " [c=%d k=%d u=%v e=%v $=%v]",
			o.Campaign, o.AdType, o.Utility, o.Efficiency, o.Cost)
	}
	sb.WriteByte('\n')
}

func writeFinalLines(sb *strings.Builder, b *Broker) {
	for _, c := range b.Campaigns() {
		fmt.Fprintf(sb, "final c=%d budget=%v spent=%v paused=%v\n", c.ID, c.Budget, c.Spent, c.Paused)
	}
	st := b.Stats()
	fmt.Fprintf(sb, "final stats arrivals=%d offers=%d utility=%v spent=%v gmin=%v gmax=%v g=%v\n",
		st.Arrivals, st.OffersPushed, st.UtilityServed, st.BudgetSpent,
		st.GammaMin, st.GammaMax, st.G)
}

// TestReplayMatchesGolden pins the broker's single-threaded semantics: the
// sharded implementation must replay a fixed seeded stream byte-identically
// to the pre-shard single-mutex broker that generated the golden files
// (regenerate with `go test ./internal/broker -run Golden -update` — only
// when an intentional semantic change is being made).
func TestReplayMatchesGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{AdTypes: workload.DefaultAdTypes()}},
		{"paced", Config{AdTypes: workload.DefaultAdTypes(), Pacing: 1.25}},
		{"fixed_g", Config{AdTypes: workload.DefaultAdTypes(), G: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := replayTranscript(t, tc.cfg, 32, 3000, 42)
			path := filepath.Join("testdata", "replay_"+tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update against the reference broker): %v", err)
			}
			if got != string(want) {
				t.Fatalf("replay diverged from the golden transcript (%d vs %d bytes): "+
					"the sharded broker is no longer bit-identical to the reference "+
					"under single-threaded replay; first diff at byte %d",
					len(got), len(want), firstDiff(got, string(want)))
			}
		})
	}
}

// TestReplayMatchesGoldenInstrumented replays the default golden stream
// with the full observability instrument set registered. The transcript
// must stay byte-identical to the uninstrumented golden: instrumentation
// is observation-only and must never change an admission decision.
func TestReplayMatchesGoldenInstrumented(t *testing.T) {
	cfg := Config{AdTypes: workload.DefaultAdTypes(), Metrics: obs.NewRegistry()}
	got := replayTranscript(t, cfg, 32, 3000, 42)
	want, err := os.ReadFile(filepath.Join("testdata", "replay_default.golden"))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	if got != string(want) {
		t.Fatalf("instrumentation changed the replay transcript (%d vs %d bytes, first diff at byte %d)",
			len(got), len(want), firstDiff(got, string(want)))
	}
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestReplayRepeatable guards the harness itself: two fresh brokers replaying
// the same stream must produce the same transcript in-process.
func TestReplayRepeatable(t *testing.T) {
	cfg := Config{AdTypes: workload.DefaultAdTypes()}
	a := replayTranscript(t, cfg, 16, 800, 9)
	b := replayTranscript(t, cfg, 16, 800, 9)
	if a != b {
		t.Fatal("replay is not repeatable in-process")
	}
}
