package main

import (
	"fmt"
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
// every internal/* and cmd/* directory has its row in DESIGN.md §2. And every
// section reference resolves (see checkSectionRefs).
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
	checkSectionRefs(t, root, docs)

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

// TestDocsBudget holds the three long documents to a line budget: DESIGN.md,
// docs/OPERATIONS.md and docs/PERFORMANCE.md together may not grow past
// docsBudget. A change that cuts lines lowers the constant; raising it
// needs a stated reason.
func TestDocsBudget(t *testing.T) {
	const docsBudget = 1963
	total := 0
	for _, doc := range []string{"DESIGN.md", "docs/OPERATIONS.md", "docs/PERFORMANCE.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		total += strings.Count(string(raw), "\n")
	}
	if total > docsBudget {
		t.Errorf("DESIGN + OPERATIONS + PERFORMANCE are %d lines, over the budget of %d: cut before adding", total, docsBudget)
	}
}

// checkSectionRefs holds every section sign in the Go files and in docs to
// a section that exists. After DESIGN, a sign and a number (two signs and a
// list, "9, 11" or "15/17") must name numbered sections. After OPERATIONS,
// PERFORMANCE or API, a sign and text must start with a heading of that doc.
// A sign with no doc name before it is read only in those four docs: before
// a number it names a DESIGN section, before text a heading of the doc
// itself (in DESIGN, where such signs name the paper's sections, it is not
// read). References are read across line wraps and // comment markers.
// CHANGES.md and ROADMAP.md are not read: they are history, and keep the
// numbers of their day.
func checkSectionRefs(t *testing.T, root string, docs []string) {
	t.Helper()
	const sign = "\u00a7"
	targets := map[string]string{"DESIGN": "DESIGN.md", "OPERATIONS": "docs/OPERATIONS.md",
		"PERFORMANCE": "docs/PERFORMANCE.md", "API": "docs/API.md"}
	headings := map[string][]string{}
	for name, doc := range targets {
		raw, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
			}
			if h, ok := strings.CutPrefix(line, "#"); ok && !fenced {
				headings[name] = append(headings[name], strings.TrimSpace(strings.TrimLeft(h, "#")))
			}
		}
	}
	numbered := map[string]bool{}
	for _, h := range headings["DESIGN"] {
		if n, _, ok := strings.Cut(h, ". "); ok {
			numbered[n] = true
		}
	}

	sources := slices.Clone(docs)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "out") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			rel, err := filepath.Rel(root, path)
			sources = append(sources, rel)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A line break, its indent and a // marker become spaces, so offsets
	// still give the line.
	wrap := regexp.MustCompile(`\n[ \t]*(?://[ \t]*)?`)
	ref := regexp.MustCompile(`(?:\b([A-Z]+)(?:\.md)?\)?[ \t]*)?` + sign + `(` + sign + `)?[ \t]*`)
	list := regexp.MustCompile(`^\d+(?:(?:[/–]|, ?| and )\d+)*`)
	number := regexp.MustCompile(`\d+`)
	space := regexp.MustCompile(`\s+`)
	checked := 0
	for _, src := range sources {
		raw, err := os.ReadFile(filepath.Join(root, src))
		if err != nil {
			t.Fatal(err)
		}
		self := ""
		for name, doc := range targets {
			if filepath.ToSlash(src) == doc {
				self = name
			}
		}
		text := wrap.ReplaceAllStringFunc(string(raw), func(s string) string { return strings.Repeat(" ", len(s)) })
		for _, m := range ref.FindAllStringSubmatchIndex(text, -1) {
			name, rest := self, text[m[1]:]
			switch {
			case m[2] >= 0:
				name = text[m[2]:m[3]]
			case self == "":
				continue
			case list.MatchString(rest):
				name = "DESIGN"
			case self == "DESIGN":
				continue
			}
			if _, ok := targets[name]; !ok {
				continue
			}
			checked++
			at := fmt.Sprintf("%s:%d", src, 1+strings.Count(string(raw[:m[0]]), "\n"))
			if name == "DESIGN" {
				nums := number.FindAllString(list.FindString(rest), -1)
				if m[4] < 0 {
					nums = nums[:min(len(nums), 1)] // one sign, one section
				}
				if len(nums) == 0 {
					t.Errorf("%s: a DESIGN.md reference names no section number", at)
				}
				for _, n := range nums {
					if !numbered[n] {
						t.Errorf("%s: DESIGN.md has no section %s", at, n)
					}
				}
				continue
			}
			rest = space.ReplaceAllString(rest[:min(len(rest), 200)], " ")
			if !slices.ContainsFunc(headings[name], func(h string) bool { return strings.HasPrefix(rest, h) }) {
				t.Errorf("%s: %s %s %q starts with no heading of %s", at, name, sign, rest[:min(len(rest), 40)], targets[name])
			}
		}
	}
	t.Logf("%d section references read", checked)
	if checked < 100 {
		t.Errorf("checked only %d section references: is the pattern still reading them?", checked)
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
