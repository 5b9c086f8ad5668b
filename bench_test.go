package muaa_test

// Benchmarks regenerating the paper's tables and figures (one per table /
// figure; DESIGN.md §5 maps IDs to experiments). Figure benches run the full
// harness sweep at a laptop scale (-scale equivalent 0.02 of the paper's
// entity counts) so `go test -bench=.` finishes in minutes; pass the real
// sizes through cmd/muaa-bench for full-scale runs. Absolute numbers differ
// from the paper's Xeon/Java testbed by design; the shapes are asserted in
// the experiment package's tests and recorded in EXPERIMENTS.md.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"muaa"
	"muaa/internal/broker"
	"muaa/internal/core"
	"muaa/internal/experiment"
	"muaa/internal/trace"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

func benchSettings() experiment.Settings {
	return experiment.DefaultSettings().Scale(0.02)
}

// BenchmarkExample1 — Table I/II + Example 1 (E1): full algorithm suite on
// the worked example.
func BenchmarkExample1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunExample1(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSeries(b *testing.B, run func(experiment.Settings, int) (experiment.Series, error)) {
	b.Helper()
	st := benchSettings()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(st, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3BudgetSweep — Figure 3: vendor-budget range sweep (real-data
// style workload).
func BenchmarkFig3BudgetSweep(b *testing.B) { benchSeries(b, experiment.RunBudgetSweep) }

// BenchmarkFig4RadiusSweep — Figure 4: vendor-radius range sweep.
func BenchmarkFig4RadiusSweep(b *testing.B) { benchSeries(b, experiment.RunRadiusSweep) }

// BenchmarkFig5CapacitySweep — Figure 5: customer-capacity range sweep.
func BenchmarkFig5CapacitySweep(b *testing.B) { benchSeries(b, experiment.RunCapacitySweep) }

// BenchmarkFig6ProbabilitySweep — Figure 6: viewing-probability range sweep.
func BenchmarkFig6ProbabilitySweep(b *testing.B) { benchSeries(b, experiment.RunProbabilitySweep) }

// BenchmarkFig7CustomerScaling — Figure 7: number of customers (synthetic).
func BenchmarkFig7CustomerScaling(b *testing.B) { benchSeries(b, experiment.RunCustomerScaling) }

// BenchmarkFig8VendorScaling — Figure 8: number of vendors (synthetic).
func BenchmarkFig8VendorScaling(b *testing.B) { benchSeries(b, experiment.RunVendorScaling) }

// BenchmarkAblationThreshold — A1: adaptive vs static admission threshold.
func BenchmarkAblationThreshold(b *testing.B) { benchSeries(b, experiment.RunThresholdAblation) }

// BenchmarkAblationG — A2: effect of the threshold base g.
func BenchmarkAblationG(b *testing.B) { benchSeries(b, experiment.RunGSweep) }

// BenchmarkAblationMCKP — A3: RECON single-vendor backend (greedy vs LP).
func BenchmarkAblationMCKP(b *testing.B) { benchSeries(b, experiment.RunMCKPAblation) }

// BenchmarkRatioStudy — A4: empirical approximation / competitive ratios
// against the exact optimum.
func BenchmarkRatioStudy(b *testing.B) {
	st := benchSettings()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunRatioStudy(st, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-solver microbenchmarks on one fixed default-shaped (scaled) problem:
// the per-algorithm running-time panels of every figure decompose into
// these.
func benchProblem(b *testing.B) *muaa.Problem {
	b.Helper()
	st := experiment.DefaultSettings().Scale(0.1) // 1,000 customers, 50 vendors
	p, err := muaa.NewSyntheticProblem(muaa.WorkloadConfig{
		Customers: st.Customers,
		Vendors:   st.Vendors,
		Budget:    st.Budget,
		Radius:    st.Radius,
		Capacity:  st.Capacity,
		ViewProb:  st.ViewProb,
		Seed:      st.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func benchSolver(b *testing.B, s muaa.Solver) {
	b.Helper()
	p := benchProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverRecon times the reconciliation approach (figures' RECON
// running-time series).
func BenchmarkSolverRecon(b *testing.B) { benchSolver(b, muaa.Recon{Seed: 1}) }

// BenchmarkSolverReconLP times RECON with the simplex LP backend.
func BenchmarkSolverReconLP(b *testing.B) { benchSolver(b, muaa.Recon{UseLP: true, Seed: 1}) }

// BenchmarkSolverGreedy times the GREEDY baseline.
func BenchmarkSolverGreedy(b *testing.B) { benchSolver(b, muaa.Greedy{}) }

// BenchmarkSolverOnline times O-AFA end to end.
func BenchmarkSolverOnline(b *testing.B) { benchSolver(b, muaa.OnlineAFA{Seed: 1}) }

// BenchmarkSolverRandom times the RANDOM baseline.
func BenchmarkSolverRandom(b *testing.B) { benchSolver(b, muaa.Random{Seed: 1}) }

// BenchmarkSolverNearest times the NEAREST baseline.
func BenchmarkSolverNearest(b *testing.B) { benchSolver(b, muaa.Nearest{}) }

// BenchmarkOnlineArrival measures the per-customer response time of O-AFA —
// the paper's claim that ONLINE answers each arrival "in less than 1 second
// even with 20K vendors" reduces to this number times the vendor filter
// fan-out.
func BenchmarkOnlineArrival(b *testing.B) {
	p := benchProblem(b)
	sess, err := core.NewSession(p, core.OnlineAFA{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Arrive(int32(i % len(p.Customers)))
	}
}

// BenchmarkAblationBatch — A6: micro-batching window sweep vs pure online.
func BenchmarkAblationBatch(b *testing.B) { benchSeries(b, experiment.RunBatchAblation) }

// BenchmarkSafeRegionStudy — A5: safe-region tracking for moving customers.
func BenchmarkSafeRegionStudy(b *testing.B) {
	st := benchSettings()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunSafeRegionStudy(st, 5, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverBatch times the micro-batching extension end to end.
func BenchmarkSolverBatch(b *testing.B) { benchSolver(b, muaa.OnlineBatch{Window: 128, Seed: 1}) }

// BenchmarkTuningStudy — A7: day-over-day threshold tuning simulation.
func BenchmarkTuningStudy(b *testing.B) {
	st := benchSettings()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunTuningStudy(st, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverReconParallel times RECON with a GOMAXPROCS worker pool over
// its independent single-vendor subproblems.
func BenchmarkSolverReconParallel(b *testing.B) { benchSolver(b, muaa.Recon{Seed: 1, Workers: -1}) }

// BenchmarkIndexAblation — A8: grid vs k-d tree on covering-vendor queries.
func BenchmarkIndexAblation(b *testing.B) {
	st := benchSettings()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunIndexAblation(st, 500); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFleet builds the broker cfg describes (AdTypes filled in), registers
// the load's deterministic campaign set and returns it with the op stream to
// replay against it. These broker benchmarks are the in-process developer
// loop; what a client sees through the socket, layer by layer, is
// `go run -C bench . -trace 1` (bench/README.md). A durable cfg (DataDir
// set) is closed when the benchmark ends.
func benchFleet(b *testing.B, cfg broker.Config, load workload.BrokerLoadConfig) (*broker.Broker, []workload.BrokerOp) {
	b.Helper()
	specs, ops, err := workload.BrokerLoad(load)
	if err != nil {
		b.Fatal(err)
	}
	cfg.AdTypes = workload.DefaultAdTypes()
	br, err := broker.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if cfg.DataDir != "" {
		b.Cleanup(func() {
			if err := br.Close(); err != nil {
				b.Error(err)
			}
		})
	}
	for _, c := range specs {
		if _, err := br.RegisterCampaignSpec(broker.CampaignSpec{Loc: c.Loc, Radius: c.Radius, Budget: c.Budget, Tags: c.Tags}); err != nil {
			b.Fatal(err)
		}
	}
	return br, ops
}

// mixedLoad is the default op mix (90% arrivals, the rest top-ups, pauses and
// reads); arrivalLoad is pure arrivals, so the batch benchmarks sweep window
// size without mixed ops breaking windows.
var (
	mixedLoad   = workload.DefaultBrokerLoadConfig(256, 8192, 42)
	arrivalLoad = workload.ArrivalBrokerLoadConfig(256, 8192, 42)
)

// benchWAL is the durable configuration: the write-ahead log in buffered
// mode (group-commit write() to the OS; no per-batch fsync), so the WAL
// benchmarks measure the logging cost itself rather than the device's fsync
// latency — the ladder's wal.fsync_ns prices the fsync arm.
func benchWAL(b *testing.B) broker.Config {
	return broker.Config{DataDir: b.TempDir(), WAL: wal.Options{Sync: wal.SyncNone}}
}

func arrivalOf(op workload.BrokerOp) broker.Arrival {
	return broker.Arrival{
		Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb,
		Interests: op.Interests, Hour: op.Hour,
	}
}

func applyBrokerOp(br *broker.Broker, op workload.BrokerOp) error {
	switch op.Kind {
	case workload.OpArrival:
		_, err := br.Arrive(arrivalOf(op))
		return err
	case workload.OpTopUp:
		return br.TopUp(op.Campaign, op.Amount)
	case workload.OpPause:
		return br.SetPaused(op.Campaign, op.Paused)
	default:
		br.Stats()
		return nil
	}
}

// BenchmarkBrokerParallelArrivals drives mixed arrival/top-up/stats traffic
// through one broker from GOMAXPROCS goroutines (b.RunParallel). Compare
// against BenchmarkBrokerSerialArrivals across -cpu values for the scaling
// curve of the sharded serving path.
func BenchmarkBrokerParallelArrivals(b *testing.B) {
	br, ops := benchFleet(b, broker.Config{}, mixedLoad)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			op := ops[int(next.Add(1)-1)%len(ops)]
			if err := applyBrokerOp(br, op); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBrokerSerialArrivals is the single-goroutine baseline for the
// parallel benchmark above.
func BenchmarkBrokerSerialArrivals(b *testing.B) {
	br, ops := benchFleet(b, broker.Config{}, mixedLoad)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := applyBrokerOp(br, ops[i%len(ops)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrokerSerialArrivalsTraced replays the serial stream with the
// flight recorder live: every arrival goes through ArriveTraced with a fresh
// request context, paying the per-stage clock reads, the outcome
// classification and the lock-free recorder write. The delta against
// BenchmarkBrokerSerialArrivals is the full tracing tax.
func BenchmarkBrokerSerialArrivalsTraced(b *testing.B) {
	br, ops := benchFleet(b, broker.Config{Tracer: trace.NewRecorder(trace.RecorderOptions{})}, mixedLoad)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i%len(ops)]
		if op.Kind == workload.OpArrival {
			req := trace.StartRequest("")
			if _, err := br.ArriveTraced(arrivalOf(op), &req); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if err := applyBrokerOp(br, op); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrokerSerialArrivalsFunnel replays the serial stream with
// per-campaign decision-funnel attribution on: every gathered candidate's
// disposition is recorded into the funnel registry at commit time. The
// delta against BenchmarkBrokerSerialArrivals is the attribution tax, which
// must stay within noise of free (a handful of atomic adds per arrival).
func BenchmarkBrokerSerialArrivalsFunnel(b *testing.B) {
	br, ops := benchFleet(b, broker.Config{Funnel: broker.FunnelConfig{Enabled: true}}, mixedLoad)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := applyBrokerOp(br, ops[i%len(ops)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrokerSerialArrivalsWAL replays the same serial stream through a
// durable broker (buffered group-commit WAL, default fsync-on-flush) — the
// delta against BenchmarkBrokerSerialArrivals is the per-op durability
// cost (the ladder's wal.append_ns, measured in-process).
func BenchmarkBrokerSerialArrivalsWAL(b *testing.B) {
	br, ops := benchFleet(b, benchWAL(b), mixedLoad)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := applyBrokerOp(br, ops[i%len(ops)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrokerParallelArrivalsWAL is the durable variant of the parallel
// benchmark: group commit lets concurrent arrivals buffer while another
// goroutine is inside the fsync, so the parallel overhead should stay close
// to the serial one.
func BenchmarkBrokerParallelArrivalsWAL(b *testing.B) {
	br, ops := benchFleet(b, benchWAL(b), mixedLoad)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			op := ops[int(next.Add(1)-1)%len(ops)]
			if err := applyBrokerOp(br, op); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchArrivalBroker is benchFleet on the pure-arrival stream, ops already
// converted to arrivals.
func benchArrivalBroker(b *testing.B) (*broker.Broker, []broker.Arrival) {
	b.Helper()
	br, ops := benchFleet(b, broker.Config{}, arrivalLoad)
	arrivals := make([]broker.Arrival, len(ops))
	for i, op := range ops {
		arrivals[i] = arrivalOf(op)
	}
	return br, arrivals
}

// BenchmarkBrokerArriveAppend is the tentpole's allocation bar in benchmark
// form: a serial arrival through the append-style entry point with a reused
// destination slice must report 0 allocs/op (the arena owns every scratch
// buffer).
func BenchmarkBrokerArriveAppend(b *testing.B) {
	br, arrivals := benchArrivalBroker(b)
	dst := make([]broker.Offer, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := br.ArriveAppend(dst[:0], arrivals[i%len(arrivals)])
		if err != nil {
			b.Fatal(err)
		}
		dst = out[:0]
	}
}

// BenchmarkBrokerArriveBatch sweeps the batch window: ns/op is per arrival,
// so the ratio of window=1 to window=64+ is the amortization of the
// per-batch fixed costs (lock acquisition, clock anchor, WAL framing).
func BenchmarkBrokerArriveBatch(b *testing.B) {
	for _, window := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			br, arrivals := benchArrivalBroker(b)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := window
				if b.N-done < n {
					n = b.N - done
				}
				lo := done % len(arrivals)
				if lo+n > len(arrivals) {
					n = len(arrivals) - lo
				}
				for _, res := range br.ArriveBatch(arrivals[lo : lo+n]) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
				done += n
			}
		})
	}
}
