package obs

import (
	"strings"
	"testing"
	"time"
)

// TestLabelHygiene pins the exposition hygiene contract (see escapeLabel and
// sanitizeLabelKey): hostile label values — embedded quotes, backslashes, raw
// newlines, invalid UTF-8 — can never break out of their quoted value
// position, and malformed keys are rewritten into the identifier grammar.
// Collector-supplied labels flow through the same renderLabels path as static
// ones, so the test drives both.
func TestLabelHygiene(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("hygiene_total", "h",
		L("quote", `a"b`),
		L("slash", `c\d`),
		L("newline", "e\nf"),
		L("utf8", "g\xffh"), // truncated rune → U+FFFD
	)
	r.NewCollectorFunc("hygiene_dyn_total", "hd", "counter", func() []Sample {
		return []Sample{{Labels: []Label{
			L("bad-key!", "v"),
			L("", "empty"),
			L("9lives", "digitfirst"),
			L("inject", "ok\"} evil_total 1\n"),
		}, Value: 3}}
	})

	var sb strings.Builder
	r.WriteTextFiltered(&sb, "")
	out := sb.String()

	for _, want := range []string{
		`quote="a\"b"`,
		`slash="c\\d"`,
		`newline="e\nf"`,
		"utf8=\"g\uFFFDh\"",
		`bad_key_="v"`,
		`_="empty"`,
		`_lives="digitfirst"`,
		`inject="ok\"} evil_total 1\n"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The injection attempt must not have minted a sample line of its own.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "evil_total") {
			t.Fatalf("label value escaped its quotes:\n%s", out)
		}
	}
	// Every sample line must stay parseable: name{...} value, one per line.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i < 0 || !strings.HasPrefix(line, "hygiene_") {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestCollectorFunc: dynamic samples render sorted by label set (the
// scrape's determinism contract), Gather expands the collector into one
// MetricPoint per sample, and registration misuse panics.
func TestCollectorFunc(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.NewCollectorFunc("camp_total", "per-campaign", "counter", func() []Sample {
		calls++
		// Deliberately unsorted: b before a.
		return []Sample{
			{Labels: []Label{L("id", "b")}, Value: 2},
			{Labels: []Label{L("id", "a")}, Value: 1},
		}
	})

	var s1, s2 strings.Builder
	r.WriteTextFiltered(&s1, "")
	r.WriteTextFiltered(&s2, "")
	if s1.String() != s2.String() {
		t.Fatalf("quiescent collector scrapes differ:\n%s\n---\n%s", s1.String(), s2.String())
	}
	out := s1.String()
	ia, ib := strings.Index(out, `camp_total{id="a"} 1`), strings.Index(out, `camp_total{id="b"} 2`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("samples missing or unsorted (a@%d, b@%d):\n%s", ia, ib, out)
	}
	if !strings.Contains(out, "# TYPE camp_total counter") {
		t.Fatalf("family header missing:\n%s", out)
	}
	if calls != 2 {
		t.Fatalf("collector called %d times for 2 scrapes", calls)
	}

	pts := r.Gather()
	if len(pts) != 2 {
		t.Fatalf("Gather returned %d points, want 2 (one per sample)", len(pts))
	}
	if pts[0].Labels != `{id="a"}` || pts[0].Value != 1 || pts[0].Kind != KindCounter {
		t.Fatalf("pts[0] = %+v", pts[0])
	}
	if pts[1].Labels != `{id="b"}` || pts[1].Value != 2 {
		t.Fatalf("pts[1] = %+v", pts[1])
	}

	mustPanic(t, "bad collector type", func() {
		r.NewCollectorFunc("x_hist", "x", "histogram", func() []Sample { return nil })
	})
	mustPanic(t, "static joining a collector family", func() {
		r.NewCounter("camp_total", "per-campaign")
	})
	mustPanic(t, "second collector on a family", func() {
		r.NewCollectorFunc("camp_total", "per-campaign", "counter", func() []Sample { return nil })
	})
}

// TestCollectorSamplerRings: the time-series sampler allocates a ring for a
// collector series the first time it appears — a campaign entering the top-K
// simply starts a new series mid-flight.
func TestCollectorSamplerRings(t *testing.T) {
	r := NewRegistry()
	var set []Sample
	r.NewCollectorFunc("top_total", "top-k", "counter", func() []Sample { return set })
	s := NewSampler(r, SamplerOptions{})

	set = []Sample{{Labels: []Label{L("id", "1")}, Value: 10}}
	s.SampleAt(tsBase)
	set = append(set, Sample{Labels: []Label{L("id", "2")}, Value: 5})
	set[0].Value = 30
	s.SampleAt(tsBase.Add(10 * time.Second))

	one := seriesOf(t, s, `top_total{id="1"}:rate`)
	if len(one) != 2 || one[1].Value != 2 {
		t.Fatalf("existing series rate = %+v, want second point 2 ((30-10)/10s)", one)
	}
	two := seriesOf(t, s, `top_total{id="2"}:rate`)
	if len(two) != 1 {
		t.Fatalf("new series should have exactly its first (rate-unknown) point, got %+v", two)
	}
}
