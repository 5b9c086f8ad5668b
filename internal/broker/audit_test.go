package broker

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"muaa/internal/audit"
	"muaa/internal/geo"
	"muaa/internal/obs"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

// auditWAL is crashWAL plus segment retention, so the audit sees the full
// history chain from genesis.
func auditWAL() wal.Options {
	o := crashWAL()
	o.Retain = true
	return o
}

// driveSeededLoad boots a durable broker over dir and serves the canonical
// seeded load; the caller decides whether to Close (graceful) or abandon
// (crash).
func driveSeededLoad(t *testing.T, dir string, campaigns, ops int, seed int64) *Broker {
	t.Helper()
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), DataDir: dir, WAL: auditWAL()})
	if err != nil {
		t.Fatal(err)
	}
	specs, stream, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(campaigns, ops, seed))
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, b, specs)
	feed := &opFeed{tb: t, b: b}
	for _, op := range stream {
		feed.apply(op)
	}
	return b
}

func defaultAuditConfig() AuditConfig {
	return AuditConfig{AdTypes: workload.DefaultAdTypes(), UseRecon: true, Workers: 1, Seed: 1}
}

// TestReplayAuditGolden pins audit determinism: the same WAL yields a
// byte-identical report (timestamp excluded — Compute never stamps one).
// Regenerate with -update after intentional report changes.
func TestReplayAuditGolden(t *testing.T) {
	dir := t.TempDir()
	b := driveSeededLoad(t, dir, 16, 800, 7)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayAudit(dir, defaultAuditConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Strip the machine-local source path so the golden is stable.
	rep2, err := ReplayAudit(dir, defaultAuditConfig())
	if err != nil {
		t.Fatal(err)
	}
	again, err := rep2.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(again) {
		t.Fatal("two audits of the same WAL produced different reports")
	}
	normalized := strings.ReplaceAll(string(got), dir, "$DATA_DIR")
	goldenPath := filepath.Join("testdata", "audit_report.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(normalized), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if normalized != string(want) {
		t.Fatalf("audit report diverged from golden (%d vs %d bytes, first diff at byte %d); run with -update if intentional",
			len(normalized), len(want), firstDiff(normalized, string(want)))
	}
}

// TestReplayAuditRatioBounds: the acceptance gates for the seeded stream —
// the empirical ratio is a true ratio (0 < r ≤ 1) and sits inside the
// theoretical guarantee computed from observed g.
func TestReplayAuditRatioBounds(t *testing.T) {
	dir := t.TempDir()
	b := driveSeededLoad(t, dir, 16, 800, 7)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayAudit(dir, defaultAuditConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "full-history" {
		t.Fatalf("retained chain must audit as full-history, got %q", rep.Mode)
	}
	if !(rep.EmpiricalRatio > 0 && rep.EmpiricalRatio <= 1) {
		t.Fatalf("empirical ratio %g outside (0, 1]", rep.EmpiricalRatio)
	}
	if rep.CompetitiveBound <= 0 {
		t.Fatalf("seeded stream must produce a defined bound, got %g (θ=%g)", rep.CompetitiveBound, rep.Theta)
	}
	if rep.EmpiricalRatio < 1/rep.CompetitiveBound {
		t.Fatalf("ratio %g violates the bound: below 1/%g", rep.EmpiricalRatio, rep.CompetitiveBound)
	}
	if !rep.BoundSatisfied {
		t.Fatal("BoundSatisfied must be true for the seeded stream")
	}
	if rep.OracleUtility < rep.GreedyUtility || rep.OracleUtility < rep.OnlineUtility {
		t.Fatalf("oracle %g below a known feasible solution (greedy %g, online %g)",
			rep.OracleUtility, rep.GreedyUtility, rep.OnlineUtility)
	}
	if len(rep.RegretByDelta) != 3 {
		t.Fatalf("want 3 δ points, got %d", len(rep.RegretByDelta))
	}
	if rep.MixDivergence < 0 || rep.MixDivergence > 1 {
		t.Fatalf("mix divergence %g outside [0, 1]", rep.MixDivergence)
	}
}

// TestReplayAuditSpentMatchesStats is the single-source-of-truth property:
// after a graceful shutdown, the audit's recomputed per-campaign spend —
// replayed from the WAL alone — equals the live broker's accounting bit for
// bit, because both performed the same serial float accumulation.
func TestReplayAuditSpentMatchesStats(t *testing.T) {
	for _, seed := range []int64{7, 21, 99} {
		dir := t.TempDir()
		b := driveSeededLoad(t, dir, 24, 1500, seed)
		live := b.Campaigns()
		st := b.Stats()
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		cfg := defaultAuditConfig()
		cfg.UseRecon = false // the property is about accounting, not oracles
		rep, err := ReplayAudit(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.CampaignAudits) != len(live) {
			t.Fatalf("seed %d: audit saw %d campaigns, broker had %d", seed, len(rep.CampaignAudits), len(live))
		}
		for i, ca := range rep.CampaignAudits {
			lc := live[i]
			if ca.ID != lc.ID {
				t.Fatalf("seed %d: campaign order diverged at %d", seed, i)
			}
			if math.Float64bits(ca.SpentTotal) != math.Float64bits(lc.Spent) {
				t.Fatalf("seed %d campaign %d: audit spent %v (%x) != live %v (%x)",
					seed, ca.ID, ca.SpentTotal, math.Float64bits(ca.SpentTotal),
					lc.Spent, math.Float64bits(lc.Spent))
			}
			if math.Float64bits(ca.Budget) != math.Float64bits(lc.Budget) {
				t.Fatalf("seed %d campaign %d: audit budget %v != live %v", seed, ca.ID, ca.Budget, lc.Budget)
			}
		}
		if math.Float64bits(rep.OnlineUtility) != math.Float64bits(st.UtilityServed) {
			t.Fatalf("seed %d: audit online utility %v != live %v", seed, rep.OnlineUtility, st.UtilityServed)
		}
		if int64(rep.Arrivals) != st.Arrivals || int64(rep.Offers) != st.OffersPushed {
			t.Fatalf("seed %d: audit %d arrivals / %d offers, live %d / %d",
				seed, rep.Arrivals, rep.Offers, st.Arrivals, st.OffersPushed)
		}
	}
}

// TestReplayAuditTornTail: a crash-torn final segment must not block the
// audit — it reports on the intact prefix, read-only.
func TestReplayAuditTornTail(t *testing.T) {
	dir := t.TempDir()
	b := driveSeededLoad(t, dir, 16, 600, 11)
	flushWAL(t, b) // crash: no Close. Tear the final segment mid-record.
	refs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := refs[len(refs)-1].Path
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := defaultAuditConfig()
	cfg.UseRecon = false
	rep, err := ReplayAudit(dir, cfg)
	if err != nil {
		t.Fatalf("torn tail must still audit: %v", err)
	}
	if rep.Arrivals == 0 {
		t.Fatal("prefix audit saw no arrivals")
	}
	if !(rep.EmpiricalRatio > 0 && rep.EmpiricalRatio <= 1) {
		t.Fatalf("prefix ratio %g outside (0, 1]", rep.EmpiricalRatio)
	}
	after, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data)-5 {
		t.Fatal("audit modified the torn segment")
	}
}

// TestLiveAuditWindow: the in-memory live path — ring capture, synchronous
// recompute, gauges, and clean shutdown of the audit loop.
func TestLiveAuditWindow(t *testing.T) {
	reg := obs.NewRegistry()
	b, err := New(Config{
		AdTypes:     workload.DefaultAdTypes(),
		AuditWindow: 128,
		AuditEvery:  time.Hour, // recompute only when the test asks
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs, stream, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(12, 600, 5))
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, b, specs)
	feed := &opFeed{tb: t, b: b}
	for _, op := range stream {
		feed.apply(op)
	}
	if got := b.AuditReport(); got != nil {
		t.Fatal("no recompute ran yet; report must be nil")
	}
	rep, err := b.AuditNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "window" || rep.Source != "live" {
		t.Fatalf("window report labeled %q/%q", rep.Mode, rep.Source)
	}
	if rep.Arrivals == 0 || rep.Arrivals > 128 {
		t.Fatalf("window of 128 reported %d arrivals", rep.Arrivals)
	}
	if !(rep.EmpiricalRatio > 0 && rep.EmpiricalRatio <= 1) {
		t.Fatalf("live ratio %g outside (0, 1]", rep.EmpiricalRatio)
	}
	if b.AuditReport() != rep {
		t.Fatal("AuditReport must return the recomputed report")
	}
	var sb strings.Builder
	reg.WriteTextFiltered(&sb, "")
	text := sb.String()
	for _, want := range []string{
		"muaa_broker_empirical_ratio",
		`muaa_broker_pacing_campaigns{utilization="0-25"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Idempotent, and the loop goroutine is gone (stop would hang otherwise).
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditWindowOwnsItsCopy: capture refills the slots it overwrites in
// place, so the window a recompute reads must be a deep copy — one full ring
// of later captures, each writing other interests and offers into the very
// arrays the window was copied from, leaves it unchanged and oldest-first.
// Captures go in as windows: a rejected element takes no slot, and a window
// may wrap the ring part-way through.
func TestAuditWindowOwnsItsCopy(t *testing.T) {
	const n = 8
	s := newAuditState(n, 0)
	// capture submits arrivals from … to-1 as one window, rejecting those
	// listed; arrival i has capacity i.
	capture := func(from, to int, rejected ...int) {
		var batch []Arrival
		var results []BatchResult
		for i := from; i < to; i++ {
			f := float64(i)
			batch = append(batch, Arrival{Loc: geo.Point{X: f, Y: -f}, Capacity: i, ViewProb: f / 256,
				Interests: []float64{f, f + 1, f + 2}, Hour: f})
			r := BatchResult{Offers: []Offer{{Campaign: int32(i), Cost: f, Utility: 2 * f}, {Campaign: -1, AdType: i}}}
			if slices.Contains(rejected, i) {
				r = BatchResult{Err: fmt.Errorf("broker: arrival %d rejected", i)}
			}
			results = append(results, r)
		}
		s.capture(batch, results)
	}
	holds := func(win []audit.Arrival, want ...int) {
		t.Helper()
		var got []int
		for _, e := range win {
			got = append(got, e.Capacity)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("window holds arrivals %v, want %v (oldest first)", got, want)
		}
	}
	capture(0, 5, 1, 3)
	holds(s.window(), 0, 2, 4)
	capture(5, 13) // five free slots, then wraps over 0, 2, 4: the oldest is mid-ring
	if s.next != 3 {
		t.Fatalf("after the wrapping window the oldest slot is %d, want 3", s.next)
	}
	win := s.window()
	holds(win, 5, 6, 7, 8, 9, 10, 11, 12)
	want := fmt.Sprint(win)
	capture(100, 100+n)
	if got := fmt.Sprint(win); got != want {
		t.Fatalf("later captures rewrote the window:\n got %s\nwant %s", got, want)
	}
	holds(s.window(), 100, 101, 102, 103, 104, 105, 106, 107)
}

// BenchmarkAuditNowDense is the live audit's recompute at the benchmark's
// `dense` scale: the billed 8 192-campaign fleet, a full 4 096-arrival
// window, one AuditNow per op. The first op builds the oracle's scratch; the
// later ones reuse it.
func BenchmarkAuditNowDense(b *testing.B) {
	br, err := New(Config{AdTypes: workload.DefaultAdTypes(), AuditWindow: 4096, AuditEvery: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer br.Close()
	arrivals := denseMarket(b, br, false)
	for at := 0; at < len(arrivals); at += 64 {
		for _, r := range br.ArriveBatch(arrivals[at : at+64]) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := br.AuditNow()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Arrivals != len(arrivals) {
			b.Fatalf("audited %d arrivals, want the full window of %d", rep.Arrivals, len(arrivals))
		}
	}
}
