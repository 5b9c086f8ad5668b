package main

import (
	"math"
	"os"
	"testing"
)

// testdata/metrics.txt is a /metrics body captured from muaa-serve after one
// registration and five arrivals on a durable broker.
func TestParseCapturedScrape(t *testing.T) {
	body, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := parseScrape(body)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"muaa_broker_arrivals_total": 5,
		"go_gomaxprocs":              2,
		`muaa_broker_arrival_stage_seconds_count{stage="scan"}`: 5,
		`muaa_broker_arrival_stage_seconds_sum{stage="scan"}`:   1.7576000000000002e-05,
		`muaa_broker_offers_total{adtype="In-App Video",k="3"}`: 5, // a label value with a space in it
		`muaa_wal_flush_seconds_bucket{le="+Inf"}`:              1,
		"muaa_wal_appends_total":                                6,
	} {
		if got, ok := sc[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if _, ok := sc["# TYPE go_gomaxprocs gauge"]; ok {
		t.Error("a comment line was parsed as a series")
	}
	// A family is summed over its label sets, and only over its own: the
	// offers family must not swallow muaa_broker_offers_pushed_total.
	if got := sc.sum("muaa_broker_offers_total"); got != 5 {
		t.Errorf("sum over ad types = %v, want 5", got)
	}
	if got := sc.sum("muaa_broker_stripe_lock_total"); got < 5 {
		t.Errorf("stripe locks summed over stripes = %v, want at least one per arrival", got)
	}
	if got := sc.sum("no_such_family"); got != 0 {
		t.Errorf("missing family sums to %v", got)
	}
}

func TestDeltaRatioAndHistogramQuantile(t *testing.T) {
	before := scrape{"a_total": 10, `b_total{x="1"}`: 1, `b_total{x="2"}`: 2,
		`h_bucket{le="0.001"}`: 0, `h_bucket{le="0.01"}`: 0, `h_bucket{le="+Inf"}`: 0}
	after := scrape{"a_total": 30, `b_total{x="1"}`: 4, `b_total{x="2"}`: 9,
		`h_bucket{le="0.001"}`: 50, `h_bucket{le="0.01"}`: 100, `h_bucket{le="+Inf"}`: 100}
	if got := delta(before, after, "b_total"); got != 10 {
		t.Errorf("delta = %v, want 10", got)
	}
	if got := ratio(before, after, "b_total", "a_total"); got != 0.5 {
		t.Errorf("ratio = %v, want 0.5", got)
	}
	if got := ratio(before, after, "b_total", "missing_total"); got != 0 {
		t.Errorf("ratio over a still denominator = %v, want 0", got)
	}
	// Ranks 1–50 fall in (0, 1 ms], 51–100 in (1 ms, 10 ms]: the median is the
	// first bucket's upper edge, p99 interpolates 98 % of the way up the second.
	if got := histQuantile(before, after, "h", 0.5); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("p50 = %v, want 0.001", got)
	}
	if got, want := histQuantile(before, after, "h", 0.99), 0.001+0.009*0.98; math.Abs(got-want) > 1e-12 {
		t.Errorf("p99 = %v, want %v", got, want)
	}
	if got := histQuantile(after, after, "h", 0.99); got != 0 {
		t.Errorf("quantile of an empty interval = %v, want 0", got)
	}
	// Everything beyond the last finite edge reports that edge.
	late := scrape{`h_bucket{le="0.001"}`: 0, `h_bucket{le="0.01"}`: 0, `h_bucket{le="+Inf"}`: 7}
	if got := histQuantile(before, late, "h", 0.5); got != 0.01 {
		t.Errorf("quantile in the +Inf bucket = %v, want the last finite edge 0.01", got)
	}
	if _, err := parseScrape([]byte("ok_series 1\nbroken_series notanumber\n")); err == nil {
		t.Error("a malformed value parsed")
	}
}
