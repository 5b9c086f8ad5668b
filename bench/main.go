// Command bench is the repo's one benchmark: it builds cmd/muaa-serve from
// the working tree, runs it as a child process on a loopback port with
// production-default flags, drives the real socket with four workloads that
// each load a different layer, checks every answer, and prints every metric
// by name and unit. README.md in this directory explains the workloads, the
// metrics and how they interact.
//
//	go run -C bench .                        all four workloads, 30 s windows
//	go run -C bench . -trace 1               the traced run: per-layer numbers and span files
//	go run -C bench . -workload batch -seed 7 -seconds 10
//	go run -C bench . -aa                    the whole set twice; non-zero exit if they disagree
//	go run -C bench . -compare old.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (BENCHMARK.json names this
// command and the metrics).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// resultsFile is bench/out/results.json.
type resultsFile struct {
	When    string      `json:"when"`
	Env     environment `json:"environment"`
	Results []*result   `json:"results"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	if addr, ok := referenceMode(os.Args); ok {
		return serveReference(addr)
	}
	var (
		workloadF = flag.String("workload", "", "run one workload (single, batch, dense, durable); empty runs all four")
		seed      = flag.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Int("seconds", 0, "timed window length (0 = 30 untraced, 10 traced)")
		traceF    = flag.Int("trace", 0, "1 = the traced run: per-layer metrics, span files, no end-to-end metrics")
		aa        = flag.Bool("aa", false, "run the whole set twice on the same binary and fail if any pair of medians is outside its bound")
		compare   = flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
		outF      = flag.String("out", "", "results file (default bench/out/results.json)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", flag.Args())
		return 2
	}
	traced := *traceF != 0
	if *seconds <= 0 {
		*seconds = 30
		if traced {
			*seconds = 10
		}
	}
	run := specs
	if *workloadF != "" {
		s, ok := specByName(*workloadF)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadF)
			return 2
		}
		run = []spec{s}
	}

	// Whatever ends this process — return, panic, Ctrl-C — reaps the child.
	defer reapAll()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		reapAll()
		os.Exit(130)
	}()

	h, env, err := newHarness()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	out := *outF
	if out == "" {
		out = filepath.Join(h.outDir, "results.json")
	}
	if *aa {
		return runAA(h, env, *seed, *seconds, out)
	}
	file := h.runSet(env, run, *seed, *seconds, traced)
	if err := writeResults(out, file); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return printFinal(file, *workloadF != "")
}

// setupRehearsals is how many times an untraced run sets the server up; the
// reported setup_s is their median.
const setupRehearsals = 3

func newHarness() (*harness, environment, error) {
	root, err := findRoot()
	if err != nil {
		return nil, environment{}, err
	}
	h := &harness{outDir: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		return nil, environment{}, err
	}
	var took time.Duration
	if h.bin, took, err = buildServer(root); err != nil {
		return nil, environment{}, err
	}
	if h.self, err = os.Executable(); err != nil {
		return nil, environment{}, err
	}
	h.plan = planCPUs()
	h.conns = max(1, min(2, runtime.NumCPU()))
	env := describeEnvironment(root, h.plan)
	env.Conns, env.BuildS = h.conns, took.Seconds()
	fmt.Printf("bench.build_s %.3f s\n", env.BuildS)
	return h, env, nil
}

// runSet runs the given workloads once each and prints as it goes.
func (h *harness) runSet(env environment, run []spec, seed int64, seconds int, traced bool) *resultsFile {
	file := &resultsFile{When: time.Now().UTC().Format(time.RFC3339), Env: env}
	setups := setupRehearsals
	if traced {
		setups = 1
	}
	for _, s := range run {
		res := h.runWorkload(s, seed, seconds, traced, setups)
		if m, ok := res.Metrics["serve.gomaxprocs"]; ok {
			file.Env.ServeProcs = int(m.Value)
		}
		file.Results = append(file.Results, res)
		printResult(res)
	}
	return file
}

func writeResults(path string, file *resultsFile) error {
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// reported selects the metrics a run of this kind publishes: end-to-end
// from the untraced run only, per-layer from the traced run only.
func reported(res *result) []def {
	if res.Traced {
		return perLayer
	}
	return endToEnd
}

func printResult(res *result) {
	for _, d := range reported(res) {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Printf("%-8s %-32s %14.4f %-8s n=%d\n", res.Workload, d.name, m.Value, m.Unit, m.N)
		}
	}
	if !res.Traced {
		// What the ratios are made of, and two diagnostics the untraced run
		// has anyway.
		for _, d := range append(append([]def(nil), raw...), def{name: "serve.p90_us"}) {
			if m, ok := res.Metrics[d.name]; ok {
				fmt.Printf("%-8s %-32s %14.4f %-8s n=%d\n", res.Workload, d.name, m.Value, m.Unit, m.N)
			}
		}
		if m, ok := res.Metrics["recover.us_per_record"]; ok {
			fmt.Printf("%-8s %-32s %14.4f %-8s n=%d (restarts %v ms)\n", res.Workload, "recover.us_per_record", m.Value, m.Unit, m.N, res.Restart)
		}
	}
	names := make([]string, 0, len(res.Spans))
	for name := range res.Spans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := res.Spans[name]
		fmt.Printf("%-8s span %-22s count %-7d total %12.1f us  self %12.1f us\n", res.Workload, name, t.Count, t.TotalUs, t.SelfUs)
	}
	for _, name := range []string{"setup", "verify", "warmup", "window", "reference", "open_loop", "recovery"} {
		if p := res.Phases[name]; p != nil {
			fmt.Printf("%-8s phase %-10s sent %d succeeded %d failed %d\n", res.Workload, name, p.Sent, p.Succeeded, p.Failed)
		}
	}
	sent, failed := res.attempted()
	fmt.Printf("%-8s %-32s %14.6f %-8s n=%d\n", res.Workload, "failed_share", float64(failed)/float64(max(1, sent)), "ratio", sent)
	if res.Error != "" {
		fmt.Fprintf(os.Stderr, "bench: %s FAILED: %s\n", res.Workload, res.Error)
	}
}

// printFinal writes the machine-readable last line and returns the exit
// code: for one workload, the object the benchmark contract asks for; for a
// set, one such object per workload.
func printFinal(file *resultsFile, single bool) int {
	type final struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}
	code := 0
	all := map[string]final{}
	for _, res := range file.Results {
		f := final{Correct: res.Correct, Metrics: map[string]map[string]any{}}
		f.Attempted, f.Failed = res.attempted()
		f.Attempted = max(1, f.Attempted)
		for _, d := range reported(res) {
			if m, ok := res.Metrics[d.name]; ok {
				f.Metrics[d.name] = map[string]any{"value": m.Value, "unit": m.Unit}
			}
		}
		if !res.Correct {
			code = 1
		}
		all[res.Workload] = f
	}
	var line []byte
	if single {
		line, _ = json.Marshal(all[file.Results[0].Workload])
	} else {
		line, _ = json.Marshal(all)
	}
	fmt.Println(string(line))
	return code
}
