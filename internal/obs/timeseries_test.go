package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateTimeseriesGolden = flag.Bool("update", false, "rewrite golden timeseries snapshots")

// tsBase is the synthetic wall clock the deterministic sampler tests tick.
var tsBase = time.Unix(1_700_000_000, 0).UTC()

// --- Task 1: Gather + ?name= filter -----------------------------------

// TestWriteTextFilteredIdentity: a prefix restricts the scrape to matching
// families only, and the empty prefix renders every family — the prefixes'
// scrapes joined in name order, byte for byte.
func TestWriteTextFilteredIdentity(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("muaa_req_total", "requests", L("code", "200")).Add(7)
	r.NewGauge("muaa_temp", "temperature").Set(21.5)
	r.NewGaugeFunc("go_goroutines", "goroutines", func() float64 { return 8 })
	h := r.NewHistogram("muaa_lat_seconds", "latency", []float64{0.001, 0.01})
	h.Observe(0.004)

	var muaa strings.Builder
	r.WriteTextFiltered(&muaa, "muaa_")
	out := muaa.String()
	if strings.Contains(out, "go_goroutines") {
		t.Fatalf("prefix muaa_ leaked go_goroutines:\n%s", out)
	}
	for _, want := range []string{"muaa_req_total", "muaa_temp", "muaa_lat_seconds_bucket"} {
		if !strings.Contains(out, want) {
			t.Fatalf("prefix muaa_ dropped %s:\n%s", want, out)
		}
	}

	var all, goFamilies strings.Builder
	r.WriteTextFiltered(&all, "")
	r.WriteTextFiltered(&goFamilies, "go_")
	if want := goFamilies.String() + out; all.String() != want {
		t.Fatalf("empty prefix is not every family in name order:\n--- got\n%s--- want\n%s", all.String(), want)
	}
}

func TestHandlerNameFilter(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("muaa_req_total", "requests").Add(3)
	r.NewGauge("go_goroutines", "goroutines").Set(5)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(url string) string {
		t.Helper()
		resp, err := srv.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s → %d", url, resp.StatusCode)
		}
		return string(b)
	}

	full := get(srv.URL)
	if !strings.Contains(full, "muaa_req_total 3") || !strings.Contains(full, "go_goroutines 5") {
		t.Fatalf("unfiltered scrape incomplete:\n%s", full)
	}
	only := get(srv.URL + "?name=muaa_")
	if strings.Contains(only, "go_goroutines") || !strings.Contains(only, "muaa_req_total 3") {
		t.Fatalf("?name=muaa_ filter wrong:\n%s", only)
	}
	if none := get(srv.URL + "?name=nosuch_"); strings.TrimSpace(none) != "" {
		t.Fatalf("?name=nosuch_ should be empty, got:\n%s", none)
	}
}

func TestGather(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("b_total", "b", L("code", "200")).Add(4)
	r.NewGauge("a_gauge", "a").Set(-2.5)
	h := r.NewHistogram("c_lat", "c", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(20)

	pts := r.Gather()
	if len(pts) != 3 {
		t.Fatalf("Gather returned %d points, want 3", len(pts))
	}
	// Scrape order: families sorted by name.
	if pts[0].Name != "a_gauge" || pts[0].Kind != KindGauge || pts[0].Value != -2.5 {
		t.Fatalf("pts[0] = %+v", pts[0])
	}
	if pts[1].Name != "b_total" || pts[1].Kind != KindCounter ||
		pts[1].Labels != `{code="200"}` || pts[1].Value != 4 {
		t.Fatalf("pts[1] = %+v", pts[1])
	}
	if pts[2].Name != "c_lat" || pts[2].Kind != KindHistogram || pts[2].Hist == nil {
		t.Fatalf("pts[2] = %+v", pts[2])
	}
	if pts[2].Hist.Count != 2 || pts[2].Hist.Sum != 20.5 {
		t.Fatalf("histogram snapshot = %+v", pts[2].Hist)
	}
}

// --- Task 2: sampler + retention ring ----------------------------------

// seriesOf returns the named series' points from a full-query snapshot.
func seriesOf(t *testing.T, s *Sampler, name string) []Point {
	t.Helper()
	snap := s.Query(TimeSeriesQuery{Prefixes: []string{name}})
	for _, sr := range snap.Series {
		if sr.Name == name {
			return sr.Points
		}
	}
	t.Fatalf("series %q not found (have %d series)", name, len(snap.Series))
	return nil
}

func TestSamplerDerivations(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("ev_total", "events")
	g := r.NewGauge("depth", "queue depth")
	h := r.NewHistogram("lat_seconds", "latency", []float64{0.001, 0.01, 0.1, 1})
	s := NewSampler(r, SamplerOptions{})

	g.Set(3)
	s.SampleAt(tsBase) // first sample: rates/quantiles unknown

	c.Add(50)
	g.Set(7)
	for i := 0; i < 100; i++ {
		h.Observe(0.004) // all in the (0.001, 0.01] bucket
	}
	s.SampleAt(tsBase.Add(5 * time.Second))

	rate := seriesOf(t, s, "ev_total:rate")
	if len(rate) != 2 || !math.IsNaN(rate[0].Value) {
		t.Fatalf("first counter rate should be NaN: %+v", rate)
	}
	if got := rate[1].Value; got != 10 {
		t.Fatalf("counter rate = %g, want 10 (50 events / 5s)", got)
	}
	depth := seriesOf(t, s, "depth")
	if depth[0].Value != 3 || depth[1].Value != 7 {
		t.Fatalf("gauge series = %+v, want [3 7]", depth)
	}
	hrate := seriesOf(t, s, "lat_seconds:rate")
	if got := hrate[1].Value; got != 20 {
		t.Fatalf("histogram observation rate = %g, want 20", got)
	}
	p99 := seriesOf(t, s, "lat_seconds:p99")
	if v := p99[1].Value; !(v > 0.001 && v <= 0.01) {
		t.Fatalf("p99 = %g, want inside the (0.001, 0.01] bucket", v)
	}
	if !math.IsNaN(p99[0].Value) {
		t.Fatalf("first histogram quantile should be NaN, got %g", p99[0].Value)
	}

	// An idle window: rate 0, quantiles NaN (no observations ≠ fast).
	s.SampleAt(tsBase.Add(10 * time.Second))
	p99 = seriesOf(t, s, "lat_seconds:p99")
	if !math.IsNaN(p99[2].Value) {
		t.Fatalf("idle-window p99 = %g, want NaN", p99[2].Value)
	}
	if hrate = seriesOf(t, s, "lat_seconds:rate"); hrate[2].Value != 0 {
		t.Fatalf("idle-window rate = %g, want 0", hrate[2].Value)
	}
}

func TestSamplerCounterResetClampsToZero(t *testing.T) {
	r := NewRegistry()
	val := 100.0
	r.NewCounterFunc("restarts_total", "x", func() float64 { return val })
	s := NewSampler(r, SamplerOptions{})

	s.SampleAt(tsBase)
	val = 150
	s.SampleAt(tsBase.Add(5 * time.Second))
	val = 20 // restart: cumulative value fell
	s.SampleAt(tsBase.Add(10 * time.Second))
	val = 25
	s.SampleAt(tsBase.Add(15 * time.Second))

	pts := seriesOf(t, s, "restarts_total:rate")
	if pts[1].Value != 10 {
		t.Fatalf("pre-reset rate = %g, want 10", pts[1].Value)
	}
	if pts[2].Value != 0 {
		t.Fatalf("reset window rate = %g, want clamp to 0", pts[2].Value)
	}
	if pts[3].Value != 1 {
		t.Fatalf("post-reset rate = %g, want 1", pts[3].Value)
	}
}

func TestSamplerRingWraparound(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("wrap", "x")
	s := NewSampler(r, SamplerOptions{})

	const samples = ringPoints + 6
	for i := 0; i < samples; i++ {
		g.Set(float64(i))
		s.SampleAt(tsBase.Add(time.Duration(i) * time.Second))
	}
	pts := seriesOf(t, s, "wrap")
	if len(pts) != ringPoints {
		t.Fatalf("ring holds %d points, want %d", len(pts), ringPoints)
	}
	for i, p := range pts {
		wantV := float64(6 + i)
		wantT := float64(tsBase.Unix()) + wantV
		if p.Value != wantV || p.Unix != wantT {
			t.Fatalf("pts[%d] = %+v, want t=%g v=%g (oldest-first tail)", i, p, wantT, wantV)
		}
	}
	if snap := s.Query(TimeSeriesQuery{}); snap.Samples != samples {
		t.Fatalf("Samples = %d, want %d", snap.Samples, samples)
	}
}

func TestSamplerEmptyRegistry(t *testing.T) {
	r := NewRegistry()
	s := NewSampler(r, SamplerOptions{})
	s.SampleAt(tsBase)
	s.SampleAt(tsBase.Add(time.Second))
	// Only the sampler's own instruments exist: one counter (→ :rate) and
	// one gauge.
	snap := s.Query(TimeSeriesQuery{})
	if len(snap.Series) != 2 {
		names := make([]string, 0, len(snap.Series))
		for _, sr := range snap.Series {
			names = append(names, sr.Name)
		}
		t.Fatalf("series = %v, want only the two self-instruments", names)
	}
	if got := seriesOf(t, s, "muaa_obs_samples_total:rate")[1].Value; got != 1 {
		t.Fatalf("self sample rate = %g, want 1 (one sample per second)", got)
	}
}

func TestSamplerQueryFilters(t *testing.T) {
	r := NewRegistry()
	a := r.NewGauge("aa", "x")
	r.NewGauge("bb", "x").Set(1)
	s := NewSampler(r, SamplerOptions{})
	for i := 0; i < 10; i++ {
		a.Set(float64(i))
		s.SampleAt(tsBase.Add(time.Duration(i) * time.Second))
	}

	snap := s.Query(TimeSeriesQuery{Prefixes: []string{"aa", "bb"}})
	if len(snap.Series) != 2 || snap.Series[0].Name != "aa" || snap.Series[1].Name != "bb" {
		t.Fatalf("prefix filter returned %+v", snap.Series)
	}
	if snap.Schema != TimeSeriesSchema || snap.Capacity != ringPoints {
		t.Fatalf("snapshot header = %+v", snap)
	}

	// range: only points within 3s of the newest (t=9): t ∈ {6,7,8,9}.
	snap = s.Query(TimeSeriesQuery{Prefixes: []string{"aa"}, Range: 3 * time.Second})
	pts := snap.Series[0].Points
	if len(pts) != 4 || pts[0].Value != 6 || pts[3].Value != 9 {
		t.Fatalf("range filter = %+v, want values 6..9", pts)
	}

	// step: every 4th counting back from newest → values 1, 5, 9.
	snap = s.Query(TimeSeriesQuery{Prefixes: []string{"aa"}, Step: 4})
	pts = snap.Series[0].Points
	if len(pts) != 3 || pts[0].Value != 1 || pts[1].Value != 5 || pts[2].Value != 9 {
		t.Fatalf("step filter = %+v, want values [1 5 9]", pts)
	}
}

func TestPointJSONRoundTrip(t *testing.T) {
	for _, p := range []Point{
		{Unix: 1700000000, Value: 12.5},
		{Unix: 1700000000.25, Value: math.NaN()},
		{Unix: 0, Value: -3},
	} {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(p.Value) && !strings.Contains(string(b), `"v":null`) {
			t.Fatalf("NaN marshaled as %s, want null", b)
		}
		var back Point
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back.Unix != p.Unix ||
			(back.Value != p.Value && !(math.IsNaN(back.Value) && math.IsNaN(p.Value))) {
			t.Fatalf("round-trip %s → %+v, want %+v", b, back, p)
		}
	}
}

// TestSamplerGoldenJSON pins the /v1/debug/timeseries document for a
// seeded run byte-for-byte (run with -update to regenerate).
func TestSamplerGoldenJSON(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("muaa_demo_events_total", "seeded events")
	g := r.NewGauge("muaa_demo_ratio", "seeded ratio")
	h := r.NewHistogram("muaa_demo_lat_seconds", "seeded latency", []float64{0.001, 0.01, 0.1})
	s := NewSampler(r, SamplerOptions{Every: 5 * time.Second})

	ratios := []float64{1, 0.95, 0.7, 0.82, 1}
	for i, ratio := range ratios {
		c.Add(uint64(10 * i))
		g.Set(ratio)
		for j := 0; j < 4*i; j++ {
			h.Observe(0.004)
		}
		s.SampleAt(tsBase.Add(time.Duration(i) * 5 * time.Second))
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "?series=muaa_demo_&range=15s&step=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	compact, _ := io.ReadAll(resp.Body)
	// The endpoint answers compact JSON; the golden is kept indented so it
	// stays reviewable.
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, "", " "); err != nil {
		t.Fatalf("body is not JSON: %v\n%s", err, compact)
	}
	body := indented.Bytes()

	golden := filepath.Join("testdata", "timeseries.golden.json")
	if *updateTimeseriesGolden {
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if string(body) != string(want) {
		t.Fatalf("timeseries JSON drifted from golden:\n--- got\n%s--- want\n%s", body, want)
	}
}

func TestSamplerHandlerErrors(t *testing.T) {
	s := NewSampler(NewRegistry(), SamplerOptions{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		path string
		code int
	}{
		{"?range=banana", 400},
		{"?range=-5s", 400},
		{"?step=0", 400},
		{"?step=x", 400},
	} {
		resp, err := srv.Client().Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("GET %s → %d, want %d", tc.path, resp.StatusCode, tc.code)
		}
		var env struct {
			Error struct {
				Code, Message string
			}
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
			t.Errorf("GET %s: body %q is not the error envelope", tc.path, body)
		}
	}

	resp, err := srv.Client().Post(srv.URL, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("POST → %d, want 405", resp.StatusCode)
	}
}

// TestSamplerEvictsSilentSeries pins the bound on the series count: a
// collector whose 4-label set rotates through 1 840 values (the funnel's
// shifting top-K, narrowed to keep the rings small) keeps at most
// ringPoints samples' worth of rings alive, the previous-value maps shrink
// with them, and a label that returns after its ring was evicted starts a
// fresh one.
func TestSamplerEvictsSilentSeries(t *testing.T) {
	const (
		perSample = 4
		labels    = perSample * (ringPoints + 100)
		// Rings written by the last ringPoints samples, plus the sampler's
		// two self-instruments.
		ceiling = ringPoints*perSample + 2
	)
	r := NewRegistry()
	first := 0
	r.NewCollectorFunc("rot_total", "rotating top-K", "counter", func() []Sample {
		out := make([]Sample, perSample)
		for i := range out {
			out[i] = Sample{Labels: []Label{L("id", strconv.Itoa((first+i)%labels))}, Value: float64(first + 1)}
		}
		return out
	})
	s := NewSampler(r, SamplerOptions{})

	samples := 0
	sample := func() {
		s.SampleAt(tsBase.Add(time.Duration(samples) * time.Second))
		samples++
		if n := int(s.nseries.Load()); n > ceiling {
			t.Fatalf("sample %d: %d series alive, ceiling %d", samples, n, ceiling)
		}
	}
	for ; first < labels; first += perSample {
		sample()
	}
	if n := int(s.nseries.Load()); n != ceiling {
		t.Fatalf("steady state holds %d series, want exactly %d", n, ceiling)
	}
	var text strings.Builder
	r.WriteTextFiltered(&text, "muaa_obs_series")
	if want := "muaa_obs_series " + strconv.Itoa(ceiling); !strings.Contains(text.String(), want) {
		t.Fatalf("scrape does not report %q:\n%s", want, text.String())
	}
	if len(s.prev) > ceiling {
		t.Fatalf("prev holds %d counters for %d series", len(s.prev), ceiling)
	}

	// id="160" left the set ~420 samples ago; its ring and its previous total
	// are gone, so on return it is a new series whose first rate is unknown.
	const back = `rot_total{id="160"}:rate`
	first = 160
	sample()
	if pts := seriesOf(t, s, back); len(pts) != 1 || !math.IsNaN(pts[0].Value) {
		t.Fatalf("returning label resumed an old ring: %+v", pts)
	}
	// A series silent for fewer than ringPoints samples keeps its history.
	first += perSample
	sample()
	if pts := seriesOf(t, s, back); len(pts) != 1 {
		t.Fatalf("one silent sample evicted the ring: %+v", pts)
	}
}

// TestSamplerConcurrentSoak races the background loop against scrapes,
// queries, and instrument traffic (run under -race in CI). It also pins
// the bounded-memory contract: rings never exceed ringPoints.
func TestSamplerConcurrentSoak(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("soak_total", "x")
	g := r.NewGauge("soak_gauge", "x")
	h := r.NewHistogram("soak_lat", "x", []float64{0.001, 0.01})
	s := NewSampler(r, SamplerOptions{Every: time.Millisecond})
	s.Start()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(j))
				h.Observe(float64(seed+j%7) * 1e-3)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			r.WriteTextFiltered(&sb, "soak_")
			s.Query(TimeSeriesQuery{Range: 50 * time.Millisecond, Step: 2})
			s.SampleAt(time.Now()) // racing external SampleAt vs the loop
		}
	}()

	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	s.Stop()
	s.Stop() // idempotent

	for _, sr := range s.Query(TimeSeriesQuery{}).Series {
		if len(sr.Points) > ringPoints {
			t.Fatalf("series %s holds %d points, capacity %d violated", sr.Name, len(sr.Points), ringPoints)
		}
	}
	if int(s.nseries.Load()) == 0 {
		t.Fatal("soak recorded no series")
	}
}
