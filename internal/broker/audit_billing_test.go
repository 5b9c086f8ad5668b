package broker

// ReplayAudit integration tests for billed records: billed streams
// (slate arrivals, conversions) and the pause-aware oracle.

import (
	"math"
	"testing"

	"muaa/internal/workload"
)

// TestReplayAuditBilledRevenue is the acceptance run for the slate
// economics audit: a seeded CPC/CPM mixed stream with conversions, audited
// from its retained WAL, must report the offline-slate-optimum revenue
// ratio and billing telemetry that matches the live broker's books.
func TestReplayAuditBilledRevenue(t *testing.T) {
	dir := t.TempDir()
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), DataDir: dir, WAL: auditWAL()})
	if err != nil {
		t.Fatal(err)
	}
	specs, stream, err := workload.BrokerLoad(workload.BilledBrokerLoadConfig(16, 1500, 23))
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, b, specs)
	var open []uint64
	for _, op := range stream {
		applyBilledOp(t, b, op, &open)
	}
	st := b.Stats()
	if st.Conversions == 0 {
		t.Fatalf("seeded stream converted nothing: %+v", st)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := ReplayAudit(dir, defaultAuditConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "full-history" {
		t.Fatalf("mode %q", rep.Mode)
	}
	if rep.Conversions != st.Conversions {
		t.Fatalf("audit conversions %d, broker %d", rep.Conversions, st.Conversions)
	}
	if math.Abs(rep.ConvertedRevenue-st.ConversionRevenue) > 1e-9 {
		t.Fatalf("audit converted revenue %g, broker %g", rep.ConvertedRevenue, st.ConversionRevenue)
	}
	if math.Abs(rep.EscrowHeld-st.EscrowHeld) > 1e-9 {
		t.Fatalf("audit escrow %g, broker %g", rep.EscrowHeld, st.EscrowHeld)
	}
	if rep.OnlineRevenue <= 0 || rep.OracleRevenue <= 0 {
		t.Fatalf("revenue sides must be positive: online %g oracle %g", rep.OnlineRevenue, rep.OracleRevenue)
	}
	if !(rep.RevenueRatio > 0) {
		t.Fatalf("revenue ratio %g", rep.RevenueRatio)
	}
	if !(rep.EmpiricalRatio > 0 && rep.EmpiricalRatio <= 1) {
		t.Fatalf("empirical ratio %g outside (0, 1]", rep.EmpiricalRatio)
	}
}

// TestReplayAuditPauseAware: campaigns paused at the end of the stream are
// excluded from the oracle problem — the replayed pause records carry the
// final state into the report.
func TestReplayAuditPauseAware(t *testing.T) {
	dir := t.TempDir()
	b := driveSeededLoad(t, dir, 12, 600, 19)
	campaigns := b.Campaigns()
	// Force a known end state: pause the first 8 campaigns, resume the rest.
	for i, c := range campaigns {
		if err := b.SetPaused(c.ID, i < 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayAudit(dir, defaultAuditConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PausedCampaigns != 8 {
		t.Fatalf("paused campaigns %d, want 8", rep.PausedCampaigns)
	}
	if !(rep.EmpiricalRatio > 0 && rep.EmpiricalRatio <= 1) {
		t.Fatalf("ratio %g outside (0, 1]", rep.EmpiricalRatio)
	}
	// A paused campaign must not appear in the oracle's spend plan.
	for _, ca := range rep.CampaignAudits {
		for i, c := range campaigns {
			if c.ID == ca.ID && i < 8 && ca.OracleSpent != 0 {
				t.Fatalf("paused campaign %d got oracle spend %g", ca.ID, ca.OracleSpent)
			}
		}
	}
}

// TestReplayAuditWindowMode audits a directory whose history was compacted
// away (wal.Options.Retain off): the report covers only the arrivals after
// the last snapshot, and the snapshot seeds what came before — each
// campaign's pre-window spend, the γ bounds, and the escrow and conversion
// books, which must still agree with the live broker's.
func TestReplayAuditWindowMode(t *testing.T) {
	dir := t.TempDir()
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), DataDir: dir, WAL: crashWAL()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	specs, stream, err := workload.BrokerLoad(workload.BilledBrokerLoadConfig(16, 1500, 23))
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, b, specs)
	var open []uint64
	half := len(stream) / 2
	for _, op := range stream[:half] {
		applyBilledOp(t, b, op, &open)
	}
	if err := b.snapshotNow(); err != nil {
		t.Fatal(err)
	}
	atSnapshot, arrivalsBefore := b.Campaigns(), b.Stats().Arrivals
	// No conversions over the last fifth, so holds are still open at the end.
	for i, op := range stream[half:] {
		if op.Kind == workload.OpConvert && half+i >= len(stream)*4/5 {
			continue
		}
		applyBilledOp(t, b, op, &open)
	}
	st := b.Stats()
	if st.Conversions == 0 || st.EscrowHeld <= 0 || st.Arrivals == arrivalsBefore {
		t.Fatalf("stream left nothing to seed or nothing in the window: %+v", st)
	}

	// Audited while the writer is still up (a crash image; every record is
	// flushed), so the window is not compacted into a final snapshot.
	flushWAL(t, b)
	cfg := defaultAuditConfig()
	cfg.UseRecon = false
	rep, err := ReplayAudit(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "window" {
		t.Fatalf("mode %q, want window", rep.Mode)
	}
	if int64(rep.Arrivals) != st.Arrivals-arrivalsBefore {
		t.Fatalf("window holds %d arrivals, want the %d after the snapshot", rep.Arrivals, st.Arrivals-arrivalsBefore)
	}
	if len(rep.CampaignAudits) != len(atSnapshot) {
		t.Fatalf("audit saw %d campaigns, snapshot had %d", len(rep.CampaignAudits), len(atSnapshot))
	}
	seeded := false
	for i, ca := range rep.CampaignAudits {
		sc := atSnapshot[i]
		if ca.ID != sc.ID || math.Float64bits(ca.SpentBefore) != math.Float64bits(sc.Spent) {
			t.Fatalf("campaign %d: spent before the window %v, snapshot recorded %v (id %d)", ca.ID, ca.SpentBefore, sc.Spent, sc.ID)
		}
		seeded = seeded || ca.SpentBefore > 0
	}
	if !seeded {
		t.Fatal("no campaign carried pre-window spend; the seeding assertions are vacuous")
	}
	if rep.GammaMin != st.GammaMin || rep.GammaMax != st.GammaMax {
		t.Fatalf("γ bounds [%g, %g], live [%g, %g]", rep.GammaMin, rep.GammaMax, st.GammaMin, st.GammaMax)
	}
	if rep.Conversions != st.Conversions {
		t.Fatalf("audit conversions %d, broker %d", rep.Conversions, st.Conversions)
	}
	if math.Abs(rep.ConvertedRevenue-st.ConversionRevenue) > 1e-9 {
		t.Fatalf("audit converted revenue %g, broker %g", rep.ConvertedRevenue, st.ConversionRevenue)
	}
	if math.Abs(rep.EscrowHeld-st.EscrowHeld) > 1e-9 {
		t.Fatalf("audit escrow %g, broker %g", rep.EscrowHeld, st.EscrowHeld)
	}
	if !(rep.EmpiricalRatio > 0 && rep.EmpiricalRatio <= 1) {
		t.Fatalf("empirical ratio %g outside (0, 1]", rep.EmpiricalRatio)
	}
}
