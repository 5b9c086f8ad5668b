package main

// The pacing controller experiment (-exp pacing): the deterministic
// simulation harness (internal/simulate.PacingRun) replays the diurnal
// pacing scenario at three stream sizes, controller-off vs controller-on,
// and reports the empirical competitive ratio each arm reaches together
// with the run time. The committed BENCH_pacing.json trajectory file pins
// the off/on ratio pair per commit: the controller's whole value
// proposition is the on-column staying above the off-column as the stream
// outgrows the budgets.
//
// The scenario deliberately differs from -exp audit's default mix: arrivals
// carry a monotone day clock (the pace law's contract), and the stream has
// no pause or top-up ops — the audit oracle ignores pauses by design, so a
// pause-heavy stream depresses the ratio for reasons no admission policy
// can fix (see DESIGN.md's pacing section for the measurement).

import (
	"fmt"
	"io"
	"time"

	"muaa/internal/pacing"
	"muaa/internal/simulate"
)

// runPacing sweeps the diurnal scenario at 1×, 3× and 9× the scale-sized op
// stream, controller-off then controller-on per size. A non-nil doc also
// collects each arm for -json output.
func runPacing(w io.Writer, scale float64, seed int64, csv bool, doc *benchDoc) error {
	baseOps := int(20000 * scale)
	if baseOps < 500 {
		baseOps = 500
	}
	if csv {
		fmt.Fprintln(w, "ops,arm,arrivals,empirical_ratio,online_utility,final_boost,epochs,ms")
	} else {
		fmt.Fprintf(w, "Pacing controller — diurnal scenario, off vs on (defaults: %s)\n", pacing.Default())
		fmt.Fprintf(w, "%10s %5s %10s %8s %10s %8s %8s %10s\n",
			"ops", "arm", "arrivals", "ratio", "online", "boost", "epochs", "ms")
	}
	for _, mult := range []int{1, 3, 9} {
		totalOps := baseOps * mult
		for _, on := range []bool{false, true} {
			cfg := simulate.PacingConfig{
				Ops:             totalOps,
				Ramp:            simulate.RampDiurnal,
				GuaranteedEvery: 4,
				Seed:            seed,
			}
			arm := "off"
			if on {
				d := pacing.Default()
				cfg.Controller = &d
				arm = "on"
			}
			start := time.Now()
			res, err := simulate.PacingRun(cfg)
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			ms := float64(elapsed.Nanoseconds()) / 1e6
			if csv {
				fmt.Fprintf(w, "%d,%s,%d,%.6f,%.3f,%.4f,%d,%.3f\n",
					totalOps, arm, res.Arrivals, res.Ratio, res.OnlineUtility, res.FinalBoost, res.Epochs, ms)
			} else {
				fmt.Fprintf(w, "%10d %5s %10d %8.4f %10.1f %8.3g %8d %10.2f\n",
					totalOps, arm, res.Arrivals, res.Ratio, res.OnlineUtility, res.FinalBoost, res.Epochs, ms)
			}
			if doc != nil {
				doc.Points = append(doc.Points, benchPoint{
					Series:         "pacing_" + arm,
					Label:          fmt.Sprintf("ops=%d/%s", totalOps, arm),
					Ops:            totalOps,
					NsPerOp:        float64(elapsed.Nanoseconds()) / float64(totalOps),
					Arrivals:       int(res.Arrivals),
					EmpiricalRatio: res.Ratio,
					FinalBoost:     res.FinalBoost,
					Epochs:         res.Epochs,
				})
			}
		}
	}
	return nil
}
