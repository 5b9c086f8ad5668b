package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndMAD(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := mad([]float64{1, 2, 3, 4, 100}); got != 1 {
		t.Errorf("mad = %v, want 1 (the outlier must not move it)", got)
	}
}

// The contract's spread is Python's statistics.quantiles(values, n=4):
// for 1..10 that gives [2.75, 5.5, 8.25], so (8.25−2.75)/5.5 = 1.
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(vs); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) = [1.25, 3.5, 5.75].
	if got, want := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6}), (5.75-1.25)/3.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestPercentileAndTheTenBeyondRule(t *testing.T) {
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Microsecond
	}
	for _, c := range []struct {
		q      float64
		want   time.Duration
		beyond int
	}{{0.5, 50 * time.Microsecond, 50}, {0.9, 90 * time.Microsecond, 10}, {0.99, 99 * time.Microsecond, 1}} {
		got, beyond := percentile(lats, c.q)
		if got != c.want || beyond != c.beyond {
			t.Errorf("percentile(%v) = %v with %d beyond, want %v with %d", c.q, got, beyond, c.want, c.beyond)
		}
	}
	// p90 needs 100 samples to have ten beyond it, p99 needs 1000.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{100, 0.9, true}, {99, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false}, {100, 0.5, true}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestWindowsCutReduceAndDropStragglers(t *testing.T) {
	var samples []sample
	// Window 0: 200 requests of 2 arrivals at 100 µs; window 1: 50 requests at 1 ms.
	for i := 0; i < 200; i++ {
		samples = append(samples, sample{done: time.Duration(i) * time.Millisecond, lat: 100 * time.Microsecond, arrivals: 2, offers: 3})
	}
	for i := 0; i < 50; i++ {
		samples = append(samples, sample{done: time.Second + time.Duration(i)*time.Millisecond, lat: time.Millisecond, arrivals: 2})
	}
	samples = append(samples, sample{done: 2*time.Second + time.Millisecond, lat: time.Hour, arrivals: 2}) // a straggler
	ws := windows(samples, time.Second, 2*time.Second)
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2", len(ws))
	}
	if ws[0] != (window{Requests: 200, Arrivals: 400, Offers: 600, ArrivalsPS: 400}) {
		t.Errorf("window 0 = %+v", ws[0])
	}
	if ws[1] != (window{Requests: 50, Arrivals: 100, ArrivalsPS: 100}) {
		t.Errorf("window 1 = %+v", ws[1])
	}
	if v := rate(&measured{samples: samples}, 2); v != 250 {
		t.Errorf("rate = median of {400, 100} = %v, want 250", v)
	}
}

func TestSteady(t *testing.T) {
	w := func(arrivals, offers int) pair { return pair{Serve: slice{Arrivals: arrivals, Offers: offers}} }
	if err := steady([]pair{w(100, 150), w(100, 10), w(100, 140)}); err != nil {
		t.Errorf("7%% apart: %v", err)
	}
	if err := steady([]pair{w(100, 150), w(100, 120)}); err == nil {
		t.Error("20% apart passed as steady")
	}
}

// The time-based end-to-end metrics are ratios to the reference server, so a
// machine that slows both by the same factor leaves them where they were.
func TestEndToEndIsServerOverReference(t *testing.T) {
	r := &run{res: &result{Metrics: map[string]metric{}}}
	m := &measured{}
	for i := 0; i < 5; i++ {
		slow := 1 + 0.3*float64((i+1)%2) // three of the five pairs run on a machine 30 % slower
		m.pairs = append(m.pairs, pair{
			Serve: slice{Requests: 100, Arrivals: 100, ArrivalsPS: 1000 / slow, P50us: 200 * slow, CPUus: 8000 * slow},
			Ref:   slice{Requests: 200, Arrivals: 200, ArrivalsPS: 2000 / slow, P50us: 100 * slow, CPUus: 8000 * slow},
		})
	}
	r.endToEnd(m)
	for name, want := range map[string]float64{"throughput_vs_ref": 0.5, "p50_vs_ref": 2, "server_cpu_vs_ref": 2} {
		if got := r.res.Metrics[name].Value; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if raw := r.res.Metrics["arrivals_per_s"].Value; raw == 1000 {
		t.Error("the raw rate did not see the slow pairs; the test proves nothing")
	}
}
