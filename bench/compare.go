package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// verdicts of one workload × metric pair.
const (
	better     = "better"
	within     = "within"
	worse      = "worse"
	unresolved = "unresolved" // a file's own raw values leave its median uncertain by more than the bound
)

// ownError is how uncertain a run's reported median is, judged from the raw
// values it is the median of: their interquartile range over their median,
// divided by √n as the error of a centre estimated from n values. 0 for
// counts and totals, which have no raw values behind them.
func ownError(res *result, name string) float64 {
	var vs []float64
	switch name {
	case "setup_s":
		vs = res.SetupS
	case "throughput_vs_ref":
		for _, p := range res.Pairs {
			vs = append(vs, p.Serve.ArrivalsPS/p.Ref.ArrivalsPS)
		}
	case "p50_vs_ref":
		for _, p := range res.Pairs {
			vs = append(vs, p.Serve.P50us/p.Ref.P50us)
		}
	}
	if len(vs) == 0 {
		return 0
	}
	return spread(vs) / math.Sqrt(float64(len(vs)))
}

// judge compares one metric of two runs. change is relative to old, signed
// so that positive is worse.
func judge(d def, old, new *result) (change float64, verdict string) {
	o, n := old.Metrics[d.name].Value, new.Metrics[d.name].Value
	if o == 0 {
		return 0, unresolved
	}
	change = (n - o) / o
	if d.better == "higher" {
		change = -change
	}
	switch {
	case max(ownError(old, d.name), ownError(new, d.name)) > d.bound:
		verdict = unresolved
	case change > d.bound:
		verdict = worse
	case change < -d.bound:
		verdict = better
	default:
		verdict = within
	}
	return change, verdict
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

// compareSets prints one row per workload × end-to-end metric and returns
// how many rows were worse and how many lay outside the bound either way.
func compareSets(old, new *resultsFile) (worseRows, outside int) {
	if old.Env.GitSHA != new.Env.GitSHA || old.Env.NumCPU != new.Env.NumCPU || old.Env.CPUs.Pinned != new.Env.CPUs.Pinned {
		fmt.Printf("# old: sha %.12s nproc %d pinned %v; new: sha %.12s nproc %d pinned %v\n",
			old.Env.GitSHA, old.Env.NumCPU, old.Env.CPUs.Pinned, new.Env.GitSHA, new.Env.NumCPU, new.Env.CPUs.Pinned)
	}
	fmt.Printf("%-8s %-28s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, o := range old.Results {
		for _, n := range new.Results {
			if o.Workload != n.Workload || o.Traced || n.Traced {
				continue
			}
			if o.Seed != n.Seed || o.Seconds != n.Seconds {
				fmt.Printf("# %s: seeds %d/%d, windows %d/%d s — not the same benchmark\n", o.Workload, o.Seed, n.Seed, o.Seconds, n.Seconds)
			}
			for _, d := range endToEnd {
				change, v := judge(d, o, n)
				// change is "worse is positive"; print it in the metric's own sense.
				shown := change
				if d.better == "higher" {
					shown = -change
				}
				fmt.Printf("%-8s %-28s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", o.Workload, d.name,
					o.Metrics[d.name].Value, n.Metrics[d.name].Value, 100*shown, 100*d.bound, v)
				if v == worse {
					worseRows++
				}
				if v != within {
					outside++
				}
			}
		}
	}
	return worseRows, outside
}

// compareFiles is `bench -compare old.json new.json`: non-zero when any
// metric got worse by more than its bound.
func compareFiles(oldPath, newPath string) int {
	old, err := readResults(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	new, err := readResults(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if w, _ := compareSets(old, new); w > 0 {
		return 1
	}
	return 0
}

// runAA is `bench -aa`: the same binary measured twice must agree with
// itself, or no later before/after on this machine means anything.
func runAA(h *harness, env environment, seed int64, seconds int, out string) int {
	var sets [2]*resultsFile
	for i := range sets {
		fmt.Printf("# A/A set %d of 2\n", i+1)
		sets[i] = h.runSet(env, specs, seed, seconds, false)
		path := filepath.Join(filepath.Dir(out), fmt.Sprintf("results.aa%d.json", i+1))
		if err := writeResults(path, sets[i]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, r := range sets[i].Results {
			if !r.Correct {
				return 1
			}
		}
	}
	if _, outside := compareSets(sets[0], sets[1]); outside > 0 {
		fmt.Printf("A/A: %d pairs outside their bound\n", outside)
		return 1
	}
	fmt.Println("A/A: every pair within its bound")
	return 0
}
