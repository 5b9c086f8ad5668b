package obs

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("events_total", "events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.NewGauge("depth", "queue depth")
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %g, want 3.5", got)
	}
	r.NewGaugeFunc("derived", "sampled at scrape", func() float64 { return 7 })

	var sb strings.Builder
	r.WriteText(&sb)
	for _, want := range []string{
		"# TYPE events_total counter\nevents_total 5\n",
		"# TYPE depth gauge\ndepth 3.5\n",
		"derived 7\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat", "latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // must be ignored, not poison the sum

	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 0.5+1.5+1.5+3+100 {
		t.Fatalf("sum = %g", s.Sum)
	}
	wantCounts := []uint64{1, 2, 1, 1} // (≤1], (1,2], (2,4], (4,+Inf]
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if !math.IsInf(s.Upper[len(s.Upper)-1], 1) {
		t.Fatal("last bucket bound must be +Inf")
	}
	// Median: rank 2.5 lands in the (1,2] bucket (cumulative 1 → 3).
	if q := s.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %g, want within (1,2]", q)
	}
	// p99 lands in the +Inf bucket and must clamp to the finite ceiling.
	if q := s.Quantile(0.99); q != 4 {
		t.Fatalf("p99 = %g, want the finite ceiling 4", q)
	}
	if q := (HistogramSnapshot{Upper: []float64{1, math.Inf(1)}, Counts: []uint64{0, 0}}).Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("empty-histogram quantile = %g, want NaN", q)
	}
}

func TestHistogramBucketLayoutNormalized(t *testing.T) {
	h := newHistogram([]float64{4, 1, 2, 2, 1})
	want := []float64{1, 2, 4}
	if len(h.upper) != len(want) {
		t.Fatalf("upper = %v, want %v", h.upper, want)
	}
	for i, b := range want {
		if h.upper[i] != b {
			t.Fatalf("upper = %v, want %v", h.upper, want)
		}
	}
}

// TestConcurrentConservation is the soak demanded by the concurrency model:
// hammer one histogram and one counter from many goroutines (mixing the
// hashed and explicit-lane observe paths) and require exact conservation —
// every observation counted exactly once, the sum exact (integer-valued
// observations, so float addition is exact in any order).
func TestConcurrentConservation(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("soak", "soak histogram", ExpBuckets(1, 2, 12))
	c := r.NewCounter("soak_total", "soak counter")

	const goroutines = 16
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := float64(i%1000 + 1)
				if g%2 == 0 {
					h.Observe(v)
				} else {
					h.ObserveShard(g, v)
				}
				c.Inc()
			}
		}(g)
	}
	wg.Wait()

	s := h.Snapshot()
	if want := uint64(goroutines * perG); s.Count != want {
		t.Fatalf("histogram lost observations: count = %d, want %d", s.Count, want)
	}
	var wantSum float64
	for i := 0; i < perG; i++ {
		wantSum += float64(i%1000 + 1)
	}
	wantSum *= goroutines
	if s.Sum != wantSum {
		t.Fatalf("histogram sum = %g, want exactly %g", s.Sum, wantSum)
	}
	var cum uint64
	for _, n := range s.Counts {
		cum += n
	}
	if cum != s.Count {
		t.Fatalf("bucket counts sum to %d, total says %d", cum, s.Count)
	}
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

// parseExposition reads a text-format scrape into sample name{labels} →
// value, counting TYPE headers per family along the way.
func parseExposition(t *testing.T, body string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	samples = make(map[string]float64)
	types = make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("family %s has two TYPE headers", parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, valStr := line[:idx], line[idx+1:]
		val := math.Inf(1)
		if valStr != "+Inf" {
			var err error
			val, err = strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("sample %q has unparseable value: %v", line, err)
			}
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("sample %q appears twice", key)
		}
		samples[key] = val
	}
	return samples, types
}

// TestHandlerExposition scrapes a populated registry over HTTP and checks
// the contract the docs promise: every registered metric appears exactly
// once, with finite values, under a single TYPE header per family.
func TestHandlerExposition(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("req_total", "requests", L("code", "200")).Add(3)
	r.NewCounter("req_total", "requests", L("code", "500")).Inc()
	r.NewGauge("temp", "temperature").Set(21.5)
	r.NewGaugeFunc("campaigns", "live campaigns", func() float64 { return 12 })
	h := r.NewHistogram("lat_seconds", "latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.004)
	h.Observe(0.2)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics → %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition v0.0.4", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	samples, types := parseExposition(t, sb.String())

	wantSamples := []string{
		`req_total{code="200"}`, `req_total{code="500"}`,
		"temp", "campaigns",
		`lat_seconds_bucket{le="0.001"}`, `lat_seconds_bucket{le="0.01"}`,
		`lat_seconds_bucket{le="0.1"}`, `lat_seconds_bucket{le="+Inf"}`,
		"lat_seconds_sum", "lat_seconds_count",
	}
	for _, key := range wantSamples {
		v, ok := samples[key]
		if !ok {
			t.Errorf("scrape missing sample %s", key)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("sample %s = %g, want finite", key, v)
		}
	}
	wantTypes := map[string]string{
		"req_total": "counter", "temp": "gauge",
		"campaigns": "gauge", "lat_seconds": "histogram",
	}
	for fam, typ := range wantTypes {
		if types[fam] != typ {
			t.Errorf("family %s has type %q, want %q", fam, types[fam], typ)
		}
	}
	// Cumulative buckets must be monotone and end at the total count.
	if samples[`lat_seconds_bucket{le="+Inf"}`] != samples["lat_seconds_count"] {
		t.Error("+Inf bucket must equal _count")
	}
	if samples[`lat_seconds_bucket{le="0.001"}`] > samples[`lat_seconds_bucket{le="0.01"}`] {
		t.Error("bucket series not cumulative")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "x", L("a", "1"))
	mustPanic(t, "duplicate identity", func() { r.NewCounter("x_total", "x", L("a", "1")) })
	mustPanic(t, "type clash", func() { r.NewGauge("x_total", "x") })
	mustPanic(t, "help clash", func() { r.NewCounter("x_total", "other help", L("a", "2")) })
	mustPanic(t, "empty name", func() { r.NewCounter("", "x") })
	mustPanic(t, "no buckets", func() { r.NewHistogram("h", "h", nil) })
	mustPanic(t, "bad exp buckets", func() { ExpBuckets(0, 2, 4) })
	mustPanic(t, "bad linear buckets", func() { LinearBuckets(0, 0, 4) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("esc_total", "x", L("path", "a\"b\\c\nd"))
	var sb strings.Builder
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), `esc_total{path="a\"b\\c\nd"} 0`) {
		t.Fatalf("label not escaped:\n%s", sb.String())
	}
}

func TestFindHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat", "latency", []float64{1}, L("stage", "scan"))
	if got := r.FindHistogram("lat", L("stage", "scan")); got != h {
		t.Fatal("FindHistogram did not return the registered histogram")
	}
	if got := r.FindHistogram("lat", L("stage", "commit")); got != nil {
		t.Fatal("FindHistogram invented a histogram")
	}
	if got := r.FindHistogram("nope"); got != nil {
		t.Fatal("FindHistogram invented a family")
	}
}

// TestWriteErrorIsJSON: the envelope is JSON-quoted, not Go-quoted — a
// message with a control byte, a quote and non-ASCII text must survive a
// json.Unmarshal round trip (fmt's %q writes \x01, which JSON rejects).
func TestWriteErrorIsJSON(t *testing.T) {
	const msg = "bad \x01 \"value\" é\u2028"
	rec := httptest.NewRecorder()
	WriteError(rec, 418, "teapot", msg)
	var env struct {
		Error struct{ Code, Message string }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body %q: %v", rec.Body.Bytes(), err)
	}
	if rec.Code != 418 || env.Error.Code != "teapot" || env.Error.Message != msg {
		t.Errorf("got %d %+v", rec.Code, env.Error)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	if ns := rec.Header().Get("X-Content-Type-Options"); ns != "nosniff" {
		t.Errorf("X-Content-Type-Options = %q", ns)
	}
}

// TestWriteJSONUnencodableIs500: a value encoding/json refuses must become a
// 500 `internal` envelope — the status line waits for the encoding, so a
// success status never goes out over an empty body.
func TestWriteJSONUnencodableIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, 200, map[string]float64{"budget": math.Inf(1)})
	var env struct {
		Error struct{ Code, Message string }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("status %d, body %q: %v", rec.Code, rec.Body.Bytes(), err)
	}
	if rec.Code != 500 || env.Error.Code != "internal" || env.Error.Message == "" {
		t.Errorf("got %d %+v, want a 500 internal envelope", rec.Code, env.Error)
	}
}
