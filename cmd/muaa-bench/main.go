// Command muaa-bench regenerates the paper's tables and figures. Each
// experiment prints the same two panels the paper plots — overall utility
// and running time per approach — as aligned text (default), CSV or
// terminal bar charts.
//
// Usage:
//
//	muaa-bench -exp fig3 [-scale 0.1] [-csv|-chart] [-workers 4] [-repeats 5] [-seed 42]
//	muaa-bench -exp all -scale 0.05
//
// Experiments: e1 (worked example), fig3 (budgets), fig4 (radii),
// fig5 (capacities), fig6 (view probabilities), fig7 (customer scaling),
// fig8 (vendor scaling), a1 (threshold ablation), a2 (g sweep), a3 (RECON
// backend ablation), a4 (ratio study), a5 (safe regions), a6 (micro-batch
// windows), a7 (day-over-day tuning), all.
//
// Beyond the paper's tables there are two quality studies of the live
// broker. Neither is a speed benchmark: what the serving path costs, end to
// end and layer by layer, is `go run -C bench .` (bench/README.md).
//
// `-exp audit` times the offline quality audit (muaa-audit's replay path)
// against the WAL size it reads, greedy oracle vs RECON, at three stream
// sizes:
//
//	muaa-bench -exp audit -scale 0.05 -json BENCH_audit.json
//
// `-exp pacing` replays the deterministic diurnal pacing scenario at three
// stream sizes, controller-off vs controller-on, and reports each arm's
// empirical competitive ratio (the committed BENCH_pacing.json pins the
// pair per commit):
//
//	muaa-bench -exp pacing -scale 0.05 -json BENCH_pacing.json
//
// Both accept `-json out.json` to additionally write the results in the
// stable muaa-bench/1 schema (config, git SHA, timestamp, one point per
// row) — the format of the committed BENCH_audit.json and BENCH_pacing.json,
// which TestCommittedQualityFilesMatchHead holds to the code.
//
// -scale shrinks entity counts for quick runs; 1.0 reproduces the paper's
// sizes (m = 10,000 / n = 500 defaults; fig7 up to m = 100,000). -repeats N
// replicates each sweep under N seeds and reports means.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"muaa/internal/buildinfo"
	"muaa/internal/experiment"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id: e1, fig3..fig8, a1..a8, all, audit, pacing")
		scale   = flag.Float64("scale", 1.0, "entity-count scale factor in (0,1]")
		csv     = flag.Bool("csv", false, "emit CSV instead of text tables")
		chart   = flag.Bool("chart", false, "render utility panels as terminal bar charts")
		md      = flag.Bool("md", false, "emit Markdown tables")
		workers = flag.Int("workers", 0, "sweep parallelism (0 = GOMAXPROCS)")
		repeats = flag.Int("repeats", 1, "replicate each sweep under N seeds and report means")
		seed    = flag.Int64("seed", 42, "master random seed")
		jsonOut = flag.String("json", "", "also write machine-readable results to this path (-exp audit and -exp pacing)")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("muaa-bench"))
		return
	}
	if err := run(os.Stdout, *exp, *scale, *csv, *chart, *md, *workers, *repeats, *seed, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "muaa-bench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, scale float64, csv, chart, md bool, workers, repeats int, seed int64, jsonOut string) error {
	if scale <= 0 || scale > 1 {
		return fmt.Errorf("scale %g outside (0,1]", scale)
	}
	isAudit, isPacing := strings.EqualFold(exp, "audit"), strings.EqualFold(exp, "pacing")
	if jsonOut != "" && !isAudit && !isPacing {
		return fmt.Errorf("-json is supported for -exp audit and -exp pacing only")
	}
	st := experiment.DefaultSettings()
	st.Seed = seed
	if scale < 1 {
		st = st.Scale(scale)
	}
	format := experiment.Text
	picked := 0
	for _, on := range []bool{csv, chart, md} {
		if on {
			picked++
		}
	}
	if picked > 1 {
		return fmt.Errorf("-csv, -chart and -md are mutually exclusive")
	}
	switch {
	case csv:
		format = experiment.CSVFormat
	case chart:
		format = experiment.ChartFormat
	case md:
		format = experiment.MarkdownFormat
	}
	if isAudit || isPacing {
		if chart || md {
			return fmt.Errorf("-exp %s supports text and -csv output only", strings.ToLower(exp))
		}
		var doc *benchDoc
		if jsonOut != "" {
			doc = newBenchDoc(strings.ToLower(exp), scale, seed)
		}
		var err error
		if isPacing {
			err = runPacing(w, scale, seed, csv, doc)
		} else {
			err = runAuditReplay(w, scale, seed, csv, workers, doc)
		}
		if err != nil {
			return err
		}
		if doc != nil {
			return doc.writeJSON(jsonOut)
		}
		return nil
	}
	if strings.EqualFold(exp, "all") {
		return experiment.RunAll(w, st, workers, repeats, format)
	}
	return experiment.RunByID(w, exp, st, workers, repeats, format)
}
