package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"muaa/internal/slo"
)

// TestMetricCatalogueMatchesOperationsDoc holds docs/OPERATIONS.md and the
// registry to each other. The server boots with every surface that registers
// metrics switched on (WAL, tracing, live audit, pacing controller, sampler,
// SLO watchdog, funnel) and serves a little traffic; then every family the
// scrape declares must be named in a table of the runbook, every muaa_*
// family a runbook table names must be in the scrape, and every family must
// have a reader: its name appears in the runbook outside "## Metric
// reference" (a triage recipe), in a default SLO rule, in the muaa-top panel
// table, in the benchmark module (bench/*.go) or in a CI smoke. This module's
// tests are not readers.
func TestMetricCatalogueMatchesOperationsDoc(t *testing.T) {
	base, _ := startServerOpts(t, serverOpts{
		dataDir:       t.TempDir(),
		walSync:       "flush",
		traceCapacity: 64,
		auditWindow:   64,
		controller:    "on",
		slo:           "on",
		funnel:        true,
	})
	if code := postJSON(t, base+"/v1/campaigns",
		`{"loc":{"x":0.5,"y":0.5},"radius":0.1,"budget":20,"tags":[1,0,0.2]}`, nil); code != http.StatusCreated {
		t.Fatalf("POST /v1/campaigns → %d", code)
	}
	if code := postJSON(t, base+"/v1/arrivals",
		`{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`, nil); code != http.StatusOK {
		t.Fatalf("POST /v1/arrivals → %d", code)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	registered := make(map[string]bool)
	for _, line := range strings.Split(string(scrape), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			registered[name[:strings.IndexByte(name, ' ')]] = true
		}
	}
	if len(registered) < 40 {
		t.Fatalf("scrape declares only %d families; the surfaces did not all come up", len(registered))
	}

	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	// A documented name is a `code span` in a table row that starts with a
	// metric family name; label selectors and :p99-style series suffixes
	// after the name are allowed, and `muaa_funnel_*` names a prefix.
	span := regexp.MustCompile("`((?:muaa|go)_[a-z0-9_]+)[^`]*`")
	documented := make(map[string]bool)
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range span.FindAllStringSubmatch(line, -1) {
			documented[m[1]] = true
		}
	}

	var missing []string
	for name := range registered {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s is registered but appears in no docs/OPERATIONS.md table", name)
	}

	seriesSuffixes := []string{"_bucket", "_sum", "_count"}
	var stale []string
	for name := range documented {
		if !strings.HasPrefix(name, "muaa_") {
			continue
		}
		family := name
		for _, suffix := range seriesSuffixes {
			if stem, ok := strings.CutSuffix(name, suffix); ok && registered[stem] {
				family = stem
			}
		}
		known := registered[family]
		if strings.HasSuffix(name, "_") {
			for reg := range registered {
				known = known || strings.HasPrefix(reg, name)
			}
		}
		if !known {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("docs/OPERATIONS.md names %s in a table but no such family is registered", name)
	}

	// Readers: the runbook on either side of its metric reference, the default
	// SLO rules' series, the dashboard's panel table, the benchmark, CI. A
	// reader names a family as a whole word, with or without a histogram
	// series suffix.
	before, reference, ok := strings.Cut(string(doc), "\n## Metric reference")
	if !ok {
		t.Fatal("docs/OPERATIONS.md has no \"## Metric reference\" section")
	}
	_, after, _ := strings.Cut(reference, "\n## ")
	readers := []string{before, after}
	for _, r := range slo.Default().Rules() {
		readers = append(readers, r.Series)
	}
	files, err := filepath.Glob("../../bench/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(files, "../muaa-top/dashboard.go", "../../.github/workflows/ci.yml") {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		readers = append(readers, string(text))
	}
	read := make(map[string]bool)
	word := regexp.MustCompile("(?:muaa|go)_[a-z0-9_]+")
	for _, text := range readers {
		for _, name := range word.FindAllString(text, -1) {
			read[name] = true
			for _, suffix := range seriesSuffixes {
				read[strings.TrimSuffix(name, suffix)] = true
			}
		}
	}
	var unread []string
	for name := range registered {
		if !read[name] {
			unread = append(unread, name)
		}
	}
	sort.Strings(unread)
	for _, name := range unread {
		t.Errorf("%s has no reader: no triage recipe, SLO rule, muaa-top panel, bench scrape or CI smoke names it", name)
	}
	t.Logf("%d families registered", len(registered))
}
