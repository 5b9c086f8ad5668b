package main

import "testing"

func TestJudge(t *testing.T) {
	// run is a result whose throughput ratio is rate/100, with one pair per
	// given window (server arrivals per second against a reference at 100).
	run := func(rate float64, windows ...float64) *result {
		r := &result{Metrics: map[string]metric{"throughput_vs_ref": {Value: rate / 100}, "p50_vs_ref": {Value: 100 / rate}}}
		for _, w := range windows {
			r.Pairs = append(r.Pairs, pair{Serve: slice{ArrivalsPS: w}, Ref: slice{ArrivalsPS: 100}})
		}
		return r
	}
	thr, lat := endToEnd[1], endToEnd[2]
	if thr.name != "throughput_vs_ref" || thr.better != "higher" || lat.name != "p50_vs_ref" || lat.better != "lower" {
		t.Fatalf("table order changed: %+v %+v", thr, lat)
	}
	thr.bound, lat.bound = 0.25, 0.25
	steady := []float64{98, 99, 100, 100, 100, 100, 101, 102}
	for _, c := range []struct {
		name     string
		d        def
		old, new *result
		want     string
	}{
		{"higher is better, rose", thr, run(100, steady...), run(140, steady...), better},
		{"higher is better, fell", thr, run(100, steady...), run(70, steady...), worse},
		{"inside the bound", thr, run(100, steady...), run(80, steady...), within},
		{"lower is better, rose", lat, run(100), run(70), worse},
		{"lower is better, fell", lat, run(100), run(140), better},
		// Four windows from 10 to 190 leave the median uncertain by far more
		// than the bound, whatever the two medians say.
		{"own windows too scattered", thr, run(100, 10, 50, 150, 190), run(100, steady...), unresolved},
		{"nothing to compare with", thr, run(0), run(100), unresolved},
	} {
		if _, got := judge(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if change, _ := judge(thr, run(100), run(80)); change < 0.199 || change > 0.201 {
		t.Errorf("a fall from 100 to 80 of a higher-is-better metric is change %+v, want +0.20 (worse is positive)", change)
	}
}
