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
