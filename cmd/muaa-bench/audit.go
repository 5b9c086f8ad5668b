package main

// The audit replay experiment (-exp audit): how fast the offline quality
// audit (muaa-audit / broker.ReplayAudit) runs against the size of the WAL
// it replays. Three stream sizes are driven through a durable broker with
// retained history, then each directory is audited twice — greedy oracle
// only, and with RECON — so the table separates the decode+replay cost from
// the oracle solve. The committed BENCH_audit.json trajectory file pins
// these numbers per commit.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"muaa/internal/broker"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

// runAuditReplay builds three retained WAL directories at 1×, 3× and 9× the
// scale-sized op stream and times the audit over each. A non-nil doc also
// collects each point for -json output.
func runAuditReplay(w io.Writer, scale float64, seed int64, csv bool, workers int, doc *benchDoc) error {
	campaigns := int(256 * scale)
	if campaigns < 16 {
		campaigns = 16
	}
	baseOps := int(20000 * scale)
	if baseOps < 500 {
		baseOps = 500
	}
	if csv {
		fmt.Fprintln(w, "ops,arrivals,wal_bytes,greedy_ms,recon_ms,empirical_ratio")
	} else {
		fmt.Fprintf(w, "Audit replay — %d campaigns, retained WAL, greedy vs RECON oracle\n", campaigns)
		fmt.Fprintf(w, "%10s %10s %12s %12s %12s %8s\n", "ops", "arrivals", "wal bytes", "greedy ms", "recon ms", "ratio")
	}
	for _, mult := range []int{1, 3, 9} {
		totalOps := baseOps * mult
		specs, ops, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(campaigns, totalOps, seed))
		if err != nil {
			return err
		}
		dir, err := os.MkdirTemp("", "muaa-auditbench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		b, err := broker.New(broker.Config{
			AdTypes: workload.DefaultAdTypes(),
			DataDir: dir,
			WAL:     wal.Options{Sync: wal.SyncNone, Retain: true},
		})
		if err != nil {
			return err
		}
		for _, c := range specs {
			if _, err := b.RegisterCampaignSpec(broker.CampaignSpec{Loc: c.Loc, Radius: c.Radius, Budget: c.Budget, Tags: c.Tags}); err != nil {
				return err
			}
		}
		for _, op := range ops {
			if err := applyOp(b, op); err != nil {
				return err
			}
		}
		if err := b.Close(); err != nil {
			return err
		}
		walBytes, err := dirBytes(dir)
		if err != nil {
			return err
		}

		cfg := broker.AuditConfig{AdTypes: workload.DefaultAdTypes(), Seed: seed}
		start := time.Now()
		if _, err := broker.ReplayAudit(dir, cfg); err != nil {
			return err
		}
		greedyMs := float64(time.Since(start)) / float64(time.Millisecond)

		cfg.UseRecon = true
		cfg.Workers = workers
		start = time.Now()
		rep, err := broker.ReplayAudit(dir, cfg)
		if err != nil {
			return err
		}
		reconMs := float64(time.Since(start)) / float64(time.Millisecond)

		if doc != nil {
			doc.Points = append(doc.Points, benchPoint{
				Series:         "audit_replay",
				Label:          fmt.Sprintf("ops=%d", totalOps),
				Ops:            totalOps,
				NsPerOp:        greedyMs * float64(time.Millisecond) / float64(totalOps),
				WALBytes:       walBytes,
				Arrivals:       rep.Arrivals,
				GreedyMs:       greedyMs,
				ReconMs:        reconMs,
				EmpiricalRatio: rep.EmpiricalRatio,
			})
		}
		if csv {
			fmt.Fprintf(w, "%d,%d,%d,%.1f,%.1f,%.4f\n",
				totalOps, rep.Arrivals, walBytes, greedyMs, reconMs, rep.EmpiricalRatio)
		} else {
			fmt.Fprintf(w, "%10d %10d %12d %12.1f %12.1f %8.4f\n",
				totalOps, rep.Arrivals, walBytes, greedyMs, reconMs, rep.EmpiricalRatio)
		}
	}
	return nil
}

// dirBytes sums the regular-file sizes under dir (the on-disk WAL +
// snapshot footprint the audit reads).
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// applyOp replays one op of the mixed stream through the broker.
func applyOp(b *broker.Broker, op workload.BrokerOp) error {
	switch op.Kind {
	case workload.OpArrival:
		_, err := b.Arrive(broker.Arrival{
			Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb,
			Interests: op.Interests, Hour: op.Hour,
		})
		return err
	case workload.OpTopUp:
		return b.TopUp(op.Campaign, op.Amount)
	case workload.OpPause:
		return b.SetPaused(op.Campaign, op.Paused)
	default:
		b.Stats()
		return nil
	}
}
