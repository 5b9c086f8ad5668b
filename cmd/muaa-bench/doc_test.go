package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"muaa/internal/experiment"
)

// TestDocsNameOnlyWhatExists holds the prose to the tree, the way
// cmd/muaa-serve's TestAPIDocCoversRoutes holds docs/API.md to the mux:
// every `-exp <id>` the docs print is an id run accepts, every BENCH_*.json
// they name is a file at the repo root, and every Benchmark… they tell the
// reader to run is defined — in the packages the command line names, when
// it is a `go test -bench` line. Deleting a benchmark arm without its prose
// (or the reverse) fails here. The other direction for the system inventory:
// every internal/* and cmd/* directory has its row in DESIGN.md §2.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	root := filepath.Join("..", "..")
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, inventory, _ := strings.Cut(string(design), "\n## 2. ")
	inventory, _, _ = strings.Cut(inventory, "\n## 3. ")
	for _, parent := range []string{"internal", "cmd"} {
		dirs, err := os.ReadDir(filepath.Join(root, parent))
		if err != nil || len(dirs) == 0 {
			t.Fatalf("%s: %v (%d entries)", parent, err, len(dirs))
		}
		for _, d := range dirs {
			if name := "`" + parent + "/" + d.Name() + "`"; d.IsDir() && !strings.Contains(inventory, name) {
				t.Errorf("DESIGN.md §2 has no row naming %s", name)
			}
		}
	}

	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", filepath.Join("bench", "README.md")}
	more, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil || len(more) == 0 {
		t.Fatalf("docs/*.md: %v (%d files)", err, len(more))
	}
	for _, m := range more {
		docs = append(docs, filepath.Join("docs", filepath.Base(m)))
	}

	// run's own dispatch (all, audit, pacing) plus what it forwards to
	// experiment.RunByID.
	ids := map[string]bool{"all": true, "audit": true, "pacing": true}
	for _, id := range experiment.ExperimentIDs {
		ids[id] = true
	}
	benches := definedBenchmarks(t, root)

	var (
		expRe   = regexp.MustCompile(`-exp[ =]+([A-Za-z0-9]+)`)
		fileRe  = regexp.MustCompile(`\bBENCH_[A-Za-z0-9]+\.json\b`)
		benchRe = regexp.MustCompile(`\bBenchmark[A-Z][A-Za-z0-9_]*`)
		// go test … -bench <pattern> …: the pattern, quoted or bare.
		cmdRe = regexp.MustCompile(`go test[^\n#]*?-bench[ =]+(?:'([^']+)'|"([^"]+)"|(\S+))([^\n#]*)`)
	)
	for _, doc := range docs {
		raw, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, m := range expRe.FindAllStringSubmatch(text, -1) {
			if !ids[strings.ToLower(m[1])] {
				t.Errorf("%s: `-exp %s` is not an experiment muaa-bench accepts", doc, m[1])
			}
		}
		for _, name := range fileRe.FindAllString(text, -1) {
			if _, err := os.Stat(filepath.Join(root, name)); err != nil {
				t.Errorf("%s names %s, which is not at the repo root", doc, name)
			}
		}
		for _, name := range benchRe.FindAllString(text, -1) {
			if !matchesAny(benches, nil, regexp.MustCompile("^"+regexp.QuoteMeta(name))) {
				t.Errorf("%s names %s, which no package defines", doc, name)
			}
		}
		for _, m := range cmdRe.FindAllStringSubmatch(text, -1) {
			pattern := m[1] + m[2] + m[3]
			if pattern == "." {
				continue
			}
			re, err := regexp.Compile(pattern)
			if err != nil {
				t.Errorf("%s: -bench %q does not compile: %v", doc, pattern, err)
				continue
			}
			// Package arguments sit before or after the flag on the line.
			var dirs []string
			for _, f := range strings.Fields(m[0]) {
				if strings.HasPrefix(f, ".") && !strings.HasSuffix(f, "...") {
					dirs = append(dirs, filepath.Clean(f))
				}
			}
			// Each top-level alternative must name something (a pattern with
			// groups is taken whole).
			alts := []string{pattern}
			if !strings.ContainsAny(pattern, "()") {
				alts = strings.Split(pattern, "|")
			}
			for _, a := range alts {
				if !matchesAny(benches, dirs, regexp.MustCompile(a)) {
					t.Errorf("%s: `-bench %s` matches no benchmark in %v", doc, a, dirs)
				}
			}
			for _, d := range dirs {
				if !matchesAny(benches, []string{d}, re) {
					t.Errorf("%s: `-bench %s` runs nothing in %s", doc, pattern, d)
				}
			}
		}
	}
}

// definedBenchmarks maps each directory (relative to root, "." for the root
// package) to the Benchmark functions its _test.go files define, over both
// modules in the tree.
func definedBenchmarks(t *testing.T, root string) map[string][]string {
	t.Helper()
	funcRe := regexp.MustCompile(`(?m)^func (Benchmark[A-Za-z0-9_]*)\(`)
	out := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, m := range funcRe.FindAllSubmatch(raw, -1) {
			out[rel] = append(out[rel], string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["."]) == 0 {
		t.Fatal("found no benchmarks in the root package: wrong root?")
	}
	return out
}

// matchesAny reports whether re matches a benchmark defined in one of dirs
// (any directory when dirs is empty).
func matchesAny(benches map[string][]string, dirs []string, re *regexp.Regexp) bool {
	for dir, names := range benches {
		if len(dirs) > 0 && !slices.Contains(dirs, dir) {
			continue
		}
		for _, n := range names {
			if re.MatchString(n) {
				return true
			}
		}
	}
	return false
}
