package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"muaa/internal/broker"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

// seedDir drives a small durable broker with retained WAL history and
// closes it gracefully.
func seedDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	b, err := broker.New(broker.Config{
		AdTypes: workload.DefaultAdTypes(),
		DataDir: dir,
		WAL:     wal.Options{Retain: true, FlushEvery: 1, Sync: wal.SyncNone, FlushInterval: -1, SnapshotEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	specs, stream, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(8, 400, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range specs {
		if _, err := b.RegisterCampaignSpec(broker.CampaignSpec{Loc: c.Loc, Radius: c.Radius, Budget: c.Budget, Tags: c.Tags}); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range stream {
		switch op.Kind {
		case workload.OpArrival:
			if _, err := b.Arrive(broker.Arrival{
				Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb,
				Interests: op.Interests, Hour: op.Hour,
			}); err != nil {
				t.Fatal(err)
			}
		case workload.OpTopUp:
			if err := b.TopUp(op.Campaign, op.Amount); err != nil {
				t.Fatal(err)
			}
		case workload.OpPause:
			if err := b.SetPaused(op.Campaign, op.Paused); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunWritesReport(t *testing.T) {
	dir := seedDir(t)
	out := filepath.Join(t.TempDir(), "report.json")
	if code := run([]string{"-data-dir", dir, "-json", out, "-no-recon"}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema           string  `json:"schema"`
		Mode             string  `json:"mode"`
		GeneratedAt      string  `json:"generated_at"`
		Arrivals         int     `json:"arrivals"`
		EmpiricalRatio   float64 `json:"empirical_ratio"`
		CompetitiveBound float64 `json:"competitive_bound"`
		BoundSatisfied   bool    `json:"bound_satisfied"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "muaa-audit/1" || rep.Mode != "full-history" || rep.GeneratedAt == "" {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.Arrivals == 0 {
		t.Fatal("no arrivals audited")
	}
	if !(rep.EmpiricalRatio > 0 && rep.EmpiricalRatio <= 1) {
		t.Fatalf("ratio %g outside (0, 1]", rep.EmpiricalRatio)
	}
	if rep.CompetitiveBound < rep.EmpiricalRatio {
		t.Fatalf("bound %g below ratio %g", rep.CompetitiveBound, rep.EmpiricalRatio)
	}
	if !rep.BoundSatisfied {
		t.Fatal("bound not satisfied on the seeded stream")
	}
}

func TestRunFlagErrors(t *testing.T) {
	if code := run([]string{}); code != 2 {
		t.Fatalf("missing -data-dir: exit %d, want 2", code)
	}
	if code := run([]string{"-data-dir", t.TempDir()}); code != 1 {
		t.Fatalf("empty directory: exit %d, want 1", code)
	}
	if code := run([]string{"-version"}); code != 0 {
		t.Fatalf("-version: exit %d", code)
	}
}
