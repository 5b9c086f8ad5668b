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
//   - every test the Race step names outside a -run filter — the race fence
//     — is defined, for a subtest by its parent, by exactly one func in a
//     _test.go file;
//   - that file's package is in the list of the step's one unfiltered
//     `go test -race` run, whose log the fence reads.
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

	// The Race step runs from its "- name: Race" line to the next step.
	first := slices.IndexFunc(lines, func(l string) bool {
		return strings.HasPrefix(strings.TrimSpace(l), "- name: Race")
	})
	if first < 0 {
		t.Fatal("ci.yml has no Race step")
	}
	filter := regexp.MustCompile(`-run '[^']*'`)
	test := regexp.MustCompile(`\bTest[A-Za-z0-9_]+`)
	var runs [][]string
	fenced := make(map[string]int) // test name → ci.yml line
	for i := first + 1; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if strings.HasPrefix(line, "- ") {
			break
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if f := goTest(line); slices.Contains(f, "-race") && !filter.MatchString(line) {
			var packages []string
			for _, arg := range f {
				if strings.HasPrefix(arg, "./") {
					packages = append(packages, arg)
				}
			}
			runs = append(runs, packages)
		}
		for _, name := range test.FindAllString(filter.ReplaceAllString(line, ""), -1) {
			if _, ok := fenced[name]; !ok {
				fenced[name] = i + 1
			}
		}
	}
	if len(runs) != 1 {
		t.Fatalf("the Race step makes %d unfiltered go test -race runs, want 1", len(runs))
	}
	if len(fenced) == 0 {
		t.Fatal("the Race step fences no test by name")
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
	for name, line := range fenced {
		dirs := defined[name]
		if len(dirs) != 1 {
			t.Errorf("ci.yml:%d: race fence names %s, defined by %d test funcs %v, want 1", line, name, len(dirs), dirs)
			continue
		}
		if !slices.ContainsFunc(runs[0], func(p string) bool { return covers(p, dirs[0]) }) {
			t.Errorf("ci.yml:%d: race fence names %s, but ./%s is not in the -race run's packages %v", line, name, dirs[0], runs[0])
		}
	}
	t.Logf("%d fuzz calls, %d fenced tests over %d packages", fuzzCalls, len(fenced), len(runs[0]))
}

// covers reports whether the go package pattern ("./a/b/" or "./a/...")
// names the package in dir, a slash path relative to the module root.
func covers(pattern, dir string) bool {
	p := strings.TrimSuffix(strings.TrimPrefix(pattern, "./"), "/")
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
