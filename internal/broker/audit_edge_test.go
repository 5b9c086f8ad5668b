package broker

// AuditNow edge cases: the live window can legitimately be empty, a single
// arrival wide, or full of traffic no campaign may serve (everything
// paused). Each shape must produce a well-formed report — these tests pin
// the degenerate behavior so controller code reading the report never needs
// defensive special cases beyond AuditedArrivals > 0.

import (
	"testing"
	"time"

	"muaa/internal/workload"
)

func edgeBroker(t *testing.T, window int) *Broker {
	t.Helper()
	b, err := New(Config{
		AdTypes:     workload.DefaultAdTypes(),
		AuditWindow: window,
		AuditEvery:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func checkRatio(t *testing.T, name string, ratio float64) {
	t.Helper()
	if ratio < 0 || ratio > 1 {
		t.Fatalf("%s: empirical ratio %g outside [0, 1]", name, ratio)
	}
}

// TestAuditNowEmptyWindow: a broker that has seen no traffic still audits —
// zero arrivals, zero utility on both sides, ratio pinned at 1 by the
// both-zero convention.
func TestAuditNowEmptyWindow(t *testing.T) {
	b := edgeBroker(t, 64)
	rep, err := b.AuditNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrivals != 0 || rep.AuditedArrivals != 0 {
		t.Fatalf("empty window reports %d/%d arrivals", rep.Arrivals, rep.AuditedArrivals)
	}
	if rep.OnlineUtility != 0 || rep.OracleUtility != 0 {
		t.Fatalf("empty window reports utility %g/%g", rep.OnlineUtility, rep.OracleUtility)
	}
	if rep.EmpiricalRatio != 1 {
		t.Fatalf("empty window ratio %g, want 1 (both-zero convention)", rep.EmpiricalRatio)
	}
	if rep.HourFraction != 0 {
		t.Fatalf("empty window hour fraction %g, want 0", rep.HourFraction)
	}
}

// TestAuditNowSingleArrivalWindow: AuditWindow 1 keeps only the latest
// arrival; the report must track it alone, whatever came before.
func TestAuditNowSingleArrivalWindow(t *testing.T) {
	b := edgeBroker(t, 1)
	specs, stream, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(4, 60, 3))
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, b, specs)
	feed := &opFeed{tb: t, b: b}
	for _, op := range stream {
		feed.apply(op)
	}
	rep, err := b.AuditNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrivals != 1 {
		t.Fatalf("single-arrival window audited %d arrivals", rep.Arrivals)
	}
	checkRatio(t, "single-arrival", rep.EmpiricalRatio)
	if rep.HourFraction < 0 || rep.HourFraction > 1 {
		t.Fatalf("hour fraction %g outside [0, 1]", rep.HourFraction)
	}
}

// TestAuditNowAllPaused: arrivals landing while every campaign is paused earn
// nothing online — but the window oracle is pause-blind by design (pausing is
// operator intervention, not admission policy), so the report shows the
// utility the traffic was worth and the ratio collapses accordingly.
func TestAuditNowAllPaused(t *testing.T) {
	b := edgeBroker(t, 64)
	specs, stream, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(4, 60, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range specs {
		if _, err := b.RegisterCampaign(c.Loc, c.Radius, c.Budget, c.Tags); err != nil {
			t.Fatal(err)
		}
		if err := b.SetPaused(int32(i), true); err != nil {
			t.Fatal(err)
		}
	}
	feed := &opFeed{tb: t, b: b}
	for _, op := range stream {
		if op.Kind == workload.OpArrival {
			feed.apply(op)
		}
	}
	rep, err := b.AuditNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrivals == 0 {
		t.Fatal("no arrivals audited; test is vacuous")
	}
	if rep.OnlineUtility != 0 || rep.Offers != 0 {
		t.Fatalf("paused fleet earned utility %g with %d offers", rep.OnlineUtility, rep.Offers)
	}
	checkRatio(t, "all-paused", rep.EmpiricalRatio)
	if rep.OracleUtility > 0 && rep.EmpiricalRatio != 0 {
		t.Fatalf("oracle found %g but ratio is %g, want 0", rep.OracleUtility, rep.EmpiricalRatio)
	}
}
