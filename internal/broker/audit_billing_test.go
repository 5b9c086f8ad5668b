package broker

// ReplayAudit integration tests for billed records: billed streams
// (slate arrivals, conversions) and the pause-aware oracle.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"muaa/internal/model"
	"muaa/internal/stats"
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
	feed := &opFeed{tb: t, b: b}
	for _, op := range stream {
		feed.apply(op)
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
	if math.Float64bits(rep.ConvertedRevenue) != math.Float64bits(st.ConversionRevenue) {
		t.Fatalf("audit converted revenue %v, broker %v", rep.ConvertedRevenue, st.ConversionRevenue)
	}
	if math.Float64bits(rep.EscrowHeld) != math.Float64bits(st.EscrowHeld) {
		t.Fatalf("audit escrow %v, broker %v", rep.EscrowHeld, st.EscrowHeld)
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
	feed := &opFeed{tb: t, b: b}
	half := len(stream) / 2
	for _, op := range stream[:half] {
		feed.apply(op)
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
		feed.apply(op)
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
	if math.Float64bits(rep.ConvertedRevenue) != math.Float64bits(st.ConversionRevenue) {
		t.Fatalf("audit converted revenue %v, broker %v", rep.ConvertedRevenue, st.ConversionRevenue)
	}
	if math.Float64bits(rep.EscrowHeld) != math.Float64bits(st.EscrowHeld) {
		t.Fatalf("audit escrow %v, broker %v", rep.EscrowHeld, st.EscrowHeld)
	}
	if !(rep.EmpiricalRatio > 0 && rep.EmpiricalRatio <= 1) {
		t.Fatalf("empirical ratio %g outside (0, 1]", rep.EmpiricalRatio)
	}
}

// TestReplayAuditMatchesBroker: the audit replays the log through recovery's
// own replay, so its books are the live broker's bit for bit — also on a
// stream that overflows the escrow table, whose evictions release holds no
// record names. Full history (retained chain, audited after Close) and a
// window (snapshot mid-stream, retention off, audited from the flushed log)
// are both held to the live Campaigns and Stats, and the audit leaves the
// directory's files as it found them.
func TestReplayAuditMatchesBroker(t *testing.T) {
	load := workload.BilledBrokerLoadConfig(256, 14000, 23)
	load.CPMFrac, load.CPCFrac, load.ConvertFrac = 0, 1, 0.001
	load.Capacity = stats.Range{Lo: 8, Hi: 12}
	load.Radius = stats.Range{Lo: 0.4, Hi: 0.6}
	load.Budget = stats.Range{Lo: 1e9, Hi: 2e9}
	specs, stream, err := workload.BrokerLoad(load)
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []bool{false, true} {
		name := "full-history"
		if window {
			name = "window"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := auditWAL()
			opts.Retain = !window
			b, err := New(Config{AdTypes: workload.DefaultAdTypes(), DataDir: dir, WAL: opts})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			registerLoad(t, b, specs)
			feed := &opFeed{tb: t, b: b}
			var atSnapshot []Campaign
			var before Stats
			for i, op := range stream {
				if window && i == len(stream)/2 {
					if err := b.snapshotNow(); err != nil {
						t.Fatal(err)
					}
					atSnapshot, before = b.Campaigns(), b.Stats()
				}
				feed.apply(op)
			}
			if window {
				flushWAL(t, b)
			} else if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			live, st := b.Campaigns(), b.Stats()
			if st.EscrowReleased-before.EscrowReleased <= 0 || st.Conversions == 0 {
				t.Fatalf("the audited stream evicted or converted nothing: %+v", st)
			}

			files := hashDir(t, dir)
			rep, err := ReplayAudit(dir, AuditConfig{AdTypes: workload.DefaultAdTypes()})
			if err != nil {
				t.Fatal(err)
			}
			if after := hashDir(t, dir); !reflect.DeepEqual(files, after) {
				t.Fatalf("the audit modified the directory:\nbefore %v\nafter  %v", files, after)
			}
			if rep.Mode != name {
				t.Fatalf("mode %q, want %q", rep.Mode, name)
			}
			same := func(what string, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: audit %v (%x), broker %v (%x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			if len(rep.CampaignAudits) != len(live) {
				t.Fatalf("audit saw %d campaigns, broker has %d", len(rep.CampaignAudits), len(live))
			}
			// The audit scores the decision stream, where a CPC offer costs
			// nothing until it converts: a campaign's audited spend is the
			// live one unless a conversion in the stream charged it.
			paused, spentChecked := 0, 0
			for i, ca := range rep.CampaignAudits {
				lc := live[i]
				if ca.ID != lc.ID {
					t.Fatalf("campaign order diverged at %d", i)
				}
				spentBefore, converted := 0.0, lc.Conversions
				if window {
					spentBefore, converted = atSnapshot[i].Spent, converted-atSnapshot[i].Conversions
				}
				same(fmt.Sprintf("campaign %d budget", lc.ID), ca.Budget, lc.Budget)
				same(fmt.Sprintf("campaign %d spent before", lc.ID), ca.SpentBefore, spentBefore)
				if converted == 0 {
					same(fmt.Sprintf("campaign %d spent", lc.ID), ca.SpentTotal, lc.Spent)
					spentChecked++
				}
				if lc.Paused {
					paused++
				}
			}
			if spentChecked == 0 {
				t.Fatal("every campaign converted in the stream; the spend assertions are vacuous")
			}
			if rep.PausedCampaigns != paused {
				t.Fatalf("audit paused %d, broker %d", rep.PausedCampaigns, paused)
			}
			same("escrow_held", rep.EscrowHeld, st.EscrowHeld)
			same("converted_revenue", rep.ConvertedRevenue, st.ConversionRevenue)
			same("gamma_min", rep.GammaMin, st.GammaMin)
			same("gamma_max", rep.GammaMax, st.GammaMax)
			if rep.Conversions != st.Conversions {
				t.Fatalf("audit conversions %d, broker %d", rep.Conversions, st.Conversions)
			}
			if int64(rep.Arrivals) != st.Arrivals-before.Arrivals || int64(rep.Offers) != st.OffersPushed-before.OffersPushed {
				t.Fatalf("audit %d arrivals / %d offers, broker %d / %d after the snapshot",
					rep.Arrivals, rep.Offers, st.Arrivals-before.Arrivals, st.OffersPushed-before.OffersPushed)
			}
		})
	}
}

// TestReplayAuditSpentTotalImmediateOnly: spent_total sums the audited
// offers' costs, so it is the broker's Spent bit for bit where every charge
// is immediate (fixed, CPM), and reads below it for a CPC campaign a
// conversion charged — a CPC offer costs 0 in the stream, and the charge its
// conversion makes later is not in the sum.
func TestReplayAuditSpentTotalImmediateOnly(t *testing.T) {
	for _, tc := range []struct {
		name              string
		cpm, cpc, convert float64
	}{
		{"fixed+cpm", 0.5, 0, 0},
		{"cpc", 0, 1, 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			load := workload.BilledBrokerLoadConfig(32, 3000, 5)
			load.CPMFrac, load.CPCFrac, load.ConvertFrac = tc.cpm, tc.cpc, tc.convert
			specs, stream, err := workload.BrokerLoad(load)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			b, err := New(Config{AdTypes: workload.DefaultAdTypes(), DataDir: dir, WAL: auditWAL()})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			registerLoad(t, b, specs)
			feed := &opFeed{tb: t, b: b}
			for _, op := range stream {
				feed.apply(op)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			live := b.Campaigns()
			rep, err := ReplayAudit(dir, AuditConfig{AdTypes: workload.DefaultAdTypes()})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.CampaignAudits) != len(live) {
				t.Fatalf("audit saw %d campaigns, broker has %d", len(rep.CampaignAudits), len(live))
			}
			equal, below := 0, 0
			for i, ca := range rep.CampaignAudits {
				lc := live[i]
				switch {
				case lc.Conversions == 0 && math.Float64bits(ca.SpentTotal) != math.Float64bits(lc.Spent):
					t.Fatalf("campaign %d (%s, no conversions): spent_total %v, broker Spent %v", lc.ID, lc.Billing.Model, ca.SpentTotal, lc.Spent)
				case lc.Conversions > 0 && !(ca.SpentTotal < lc.Spent):
					t.Fatalf("campaign %d (%d conversions): spent_total %v, want below broker Spent %v", lc.ID, lc.Conversions, ca.SpentTotal, lc.Spent)
				case lc.Conversions > 0:
					below++
				case lc.Spent > 0 && lc.Billing.Model != model.BillingFixed:
					equal++ // an immediate auction charge, not only fixed costs
				}
			}
			if tc.convert == 0 && equal == 0 {
				t.Fatal("no CPM campaign spent: the bit-equality is only checked on fixed costs")
			}
			if tc.convert > 0 && below == 0 {
				t.Fatal("no conversion charged a campaign: the CPC case is vacuous")
			}
		})
	}
}
