package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIWorkflowContract holds .github/workflows/ci.yml to its rule that each
// test runs once per gate, and to the tests its gates name:
//
//   - every `go test -fuzz` call carries -run '^$', so it fuzzes only its
//     target instead of first re-running its package's unit suite;
//   - the Race step makes one unfiltered `go test -race` run and the Test step
//     one unfiltered `go test` run, and each step's fence is the tests it
//     names outside a -run or -skip filter;
//   - every fenced test is defined, for a subtest by its parent, by exactly
//     one func in a _test.go file, whose package is in its step's run;
//   - every test the race run skips is fenced by the Test step instead.
//
// A renamed or moved test then fails `go test ./...`, not only CI.
func TestCIWorkflowContract(t *testing.T) {
	const root = "../.."
	text, err := os.ReadFile(filepath.Join(root, ".github/workflows/ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(text), "\n")

	fuzzCalls := 0
	for i, line := range lines {
		if slices.Contains(goTest(line), "-fuzz") {
			fuzzCalls++
			if !strings.Contains(line, ` -run '^$' `) {
				t.Errorf("ci.yml:%d: fuzz call without -run '^$' re-runs its package's unit suite first: %s", i+1, strings.TrimSpace(line))
			}
		}
	}
	if fuzzCalls == 0 {
		t.Error("ci.yml has no go test -fuzz call")
	}

	defined := make(map[string][]string) // test name → directories defining it
	decl := regexp.MustCompile(`(?m)^func (Test[A-Za-z0-9_]+)\(`)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir // .git, .github
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = append(defined[m[1]], filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	race, test := readGate(t, lines, "Race", true), readGate(t, lines, "Test", false)
	for _, g := range []gate{race, test} {
		for name, line := range g.fenced {
			dirs := defined[name]
			if len(dirs) != 1 {
				t.Errorf("ci.yml:%d: %s fence names %s, defined by %d test funcs %v, want 1", line, g.step, name, len(dirs), dirs)
				continue
			}
			if !slices.ContainsFunc(g.packages, func(p string) bool { return covers(p, dirs[0]) }) {
				t.Errorf("ci.yml:%d: %s fence names %s, but ./%s is not in the run's packages %v", line, g.step, name, dirs[0], g.packages)
			}
		}
	}
	for _, name := range race.skipped {
		if _, ok := test.fenced[name]; !ok {
			t.Errorf("ci.yml: the race run skips %s, which the Test step does not fence", name)
		}
	}
	t.Logf("%d fuzz calls, %d race-fenced tests over %d packages, %d test-fenced", fuzzCalls, len(race.fenced), len(race.packages), len(test.fenced))
}

// gate is what one CI step's script says about the tests it runs: the
// packages of its one unfiltered go test run, the tests that run skips, and
// the fence — each test the script names outside a -run or -skip filter, by
// the ci.yml line that first names it.
type gate struct {
	step     string
	packages []string
	skipped  []string
	fenced   map[string]int
}

// readGate parses the step named step, from its "- name: step" line to the
// next step; raced says whether its one unfiltered run is the -race one.
func readGate(t *testing.T, lines []string, step string, raced bool) gate {
	t.Helper()
	first := slices.IndexFunc(lines, func(l string) bool {
		name, ok := strings.CutPrefix(strings.TrimSpace(l), "- name: ")
		return ok && strings.HasPrefix(name, step) && (len(name) == len(step) || name[len(step)] == ' ')
	})
	if first < 0 {
		t.Fatalf("ci.yml has no %s step", step)
	}
	runFilter := regexp.MustCompile(`-run '[^']*'`)
	skipFilter := regexp.MustCompile(`-skip '([^']*)'`)
	test := regexp.MustCompile(`\bTest[A-Za-z0-9_]+`)
	g := gate{step: step, fenced: make(map[string]int)}
	runs := 0
	for i := first + 1; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if strings.HasPrefix(line, "- ") {
			break
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if f := goTest(line); f != nil && slices.Contains(f, "-race") == raced && !runFilter.MatchString(line) {
			runs++
			for _, arg := range f {
				if strings.HasPrefix(arg, "./") {
					g.packages = append(g.packages, arg)
				}
			}
			for _, m := range skipFilter.FindAllStringSubmatch(line, -1) {
				g.skipped = append(g.skipped, test.FindAllString(m[1], -1)...)
			}
		}
		for _, name := range test.FindAllString(skipFilter.ReplaceAllString(runFilter.ReplaceAllString(line, ""), ""), -1) {
			if _, ok := g.fenced[name]; !ok {
				g.fenced[name] = i + 1
			}
		}
	}
	if runs != 1 {
		t.Fatalf("the %s step makes %d unfiltered go test runs, want 1", step, runs)
	}
	if len(g.fenced) == 0 {
		t.Fatalf("the %s step fences no test by name", step)
	}
	return g
}

// covers reports whether the go package pattern ("./a/b/" or "./a/...")
// names the package in dir, a slash path relative to the module root.
func covers(pattern, dir string) bool {
	p := strings.TrimSuffix(strings.TrimPrefix(pattern, "./"), "/")
	if p == "..." {
		return true
	}
	if tree, ok := strings.CutSuffix(p, "/..."); ok {
		return dir == tree || strings.HasPrefix(dir, tree+"/")
	}
	return dir == p
}

// goTest returns the fields of a `go test` command line, or nil for any
// other line.
func goTest(line string) []string {
	if f := strings.Fields(line); len(f) > 2 && f[0] == "go" && f[1] == "test" {
		return f
	}
	return nil
}
