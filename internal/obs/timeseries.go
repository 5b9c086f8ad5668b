package obs

// In-process time-series retention: a background Sampler snapshots a
// Registry at a fixed cadence and folds every instrument into a
// fixed-capacity ring of (time, value) points — the broker's short-term
// memory of its own telemetry, queryable at GET /v1/debug/timeseries and
// consumed by the SLO watchdog (internal/slo).
//
// Derivation per instrument kind, one ring ("series") each:
//
//	counter X        → "X:rate"             per-second delta rate
//	gauge X          → "X"                  the sampled value
//	histogram X      → "X:rate"             observations/second in the window
//	                   "X:p50" ":p95" ":p99" quantiles of the inter-sample
//	                                        delta window (not cumulative)
//
// A counter that moves backwards between samples (a restart, a misbehaving
// CounterFunc) clamps its rate to 0 instead of going negative; a histogram
// window with no observations records NaN quantiles (rendered as JSON
// null), so idle periods are distinguishable from fast ones.
//
// Memory is strictly bounded: capacity × series × 16 bytes, all allocated
// by the first sample that sees each series (the ring arrays never grow or
// shrink afterwards). At the defaults — 360 points, the ~200-series
// registry a fully instrumented broker registers — that is under 1.5 MiB.
// The series count is itself bounded: a series that received no point for
// capacity consecutive samples (a collector label that left its top-K) holds
// only points older than the retention horizon and is dropped, so at most
// capacity × (series per sample) rings are alive however many label values a
// collector rotates through.

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TimeSeriesSchema is the schema tag of every timeseries snapshot document.
const TimeSeriesSchema = "muaa-timeseries/1"

// Point is one sampled value: Unix is the sample wall time in seconds,
// Value the derived sample (NaN = no data in the window, marshaled null).
type Point struct {
	Unix  float64
	Value float64
}

// MarshalJSON renders {"t":...,"v":...} with NaN as null, deterministically
// (shortest exact decimals).
func (p Point) MarshalJSON() ([]byte, error) {
	v := "null"
	if !math.IsNaN(p.Value) && !math.IsInf(p.Value, 0) {
		v = strconv.FormatFloat(p.Value, 'g', -1, 64)
	}
	return []byte(`{"t":` + strconv.FormatFloat(p.Unix, 'f', -1, 64) + `,"v":` + v + `}`), nil
}

// UnmarshalJSON accepts the MarshalJSON form (null → NaN).
func (p *Point) UnmarshalJSON(b []byte) error {
	var raw struct {
		T float64  `json:"t"`
		V *float64 `json:"v"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	p.Unix = raw.T
	if raw.V == nil {
		p.Value = math.NaN()
	} else {
		p.Value = *raw.V
	}
	return nil
}

// ring is one series' fixed-capacity circular point buffer.
type ring struct {
	pts  []Point // allocated once at capacity; never grows
	head int     // next write slot
	n    int     // valid points (≤ cap)

	src  string // the instrument (name+labels) this series derives from
	last uint64 // number of the sample that pushed the newest point
}

func (r *ring) push(p Point) {
	r.pts[r.head] = p
	r.head++
	if r.head == len(r.pts) {
		r.head = 0
	}
	if r.n < len(r.pts) {
		r.n++
	}
}

// appendTo appends the ring's points oldest-first to dst.
func (r *ring) appendTo(dst []Point) []Point {
	start := r.head - r.n
	if start < 0 {
		start += len(r.pts)
	}
	for i := 0; i < r.n; i++ {
		j := start + i
		if j >= len(r.pts) {
			j -= len(r.pts)
		}
		dst = append(dst, r.pts[j])
	}
	return dst
}

// SamplerOptions configures NewSampler. The zero value selects the
// defaults.
type SamplerOptions struct {
	// Every is the sampling cadence of Start's background loop; ≤ 0 selects
	// 5 s. Tests drive SampleAt directly and may ignore it.
	Every time.Duration
	// Capacity is the per-series ring size in points; ≤ 0 selects 360 (half
	// an hour at the default cadence).
	Capacity int
	// OnSample, when non-nil, runs on the sampling goroutine after each
	// sample lands (the SLO watchdog hangs its evaluation here, so rule
	// state always sees the sample that triggered it).
	OnSample func(now time.Time)
}

// Sampler snapshots one Registry into per-series retention rings. Create
// with NewSampler (one per registry — it registers its own muaa_obs_*
// instruments), drive with Start/Stop or synchronously with SampleAt.
// Sampling and querying synchronize on a single RWMutex held only for the
// in-memory fold/copy, never across a registry Gather.
type Sampler struct {
	reg      *Registry
	every    time.Duration
	capacity int
	onSample func(time.Time)

	// sampleMu serializes samplers (the Start loop vs SampleAt callers);
	// the data lock mu is never held across a Gather.
	sampleMu sync.Mutex
	prevOK   bool
	prevUnix float64
	prev     map[string]float64           // counter cumulative values
	prevHist map[string]HistogramSnapshot // histogram cumulative snapshots

	mu     sync.RWMutex
	series map[string]*ring
	names  []string // sorted keys of series

	samples atomic.Uint64
	nseries atomic.Int64

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}
	started  atomic.Bool
}

// NewSampler builds a sampler over reg and registers its self-instruments
// (muaa_obs_samples_total, muaa_obs_series) there.
func NewSampler(reg *Registry, opts SamplerOptions) *Sampler {
	if opts.Every <= 0 {
		opts.Every = 5 * time.Second
	}
	if opts.Capacity <= 0 {
		opts.Capacity = 360
	}
	s := &Sampler{
		reg:      reg,
		every:    opts.Every,
		capacity: opts.Capacity,
		onSample: opts.OnSample,
		prev:     make(map[string]float64),
		prevHist: make(map[string]HistogramSnapshot),
		series:   make(map[string]*ring),
		stopCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
	reg.NewCounterFunc("muaa_obs_samples_total",
		"Registry snapshots taken by the time-series sampler.",
		func() float64 { return float64(s.samples.Load()) })
	reg.NewGaugeFunc("muaa_obs_series",
		"Retention-ring series currently tracked by the time-series sampler.",
		func() float64 { return float64(s.nseries.Load()) })
	return s
}

// Every returns the configured sampling cadence.
func (s *Sampler) Every() time.Duration { return s.every }

// Capacity returns the per-series ring capacity in points.
func (s *Sampler) Capacity() int { return s.capacity }

// SeriesCount returns the number of series currently retained.
func (s *Sampler) SeriesCount() int { return int(s.nseries.Load()) }

// Start launches the background sampling loop. Idempotent; pair with Stop.
func (s *Sampler) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(s.doneCh)
		t := time.NewTicker(s.every)
		defer t.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case now := <-t.C:
				s.SampleAt(now)
			}
		}
	}()
}

// Stop halts the background loop and waits for it to exit. Idempotent,
// also safe when Start was never called.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	if s.started.Load() {
		<-s.doneCh
	}
}

// sampleEntry is one derived value waiting to be folded into its ring: key
// the series name, src the instrument it derives from.
type sampleEntry struct {
	key, src string
	val      float64
}

// SampleAt takes one registry snapshot stamped at now and folds it into
// the rings. It is the deterministic entry point the tests (and the Start
// loop) use; concurrent callers serialize.
func (s *Sampler) SampleAt(now time.Time) {
	s.sampleMu.Lock()
	unix := float64(now.UnixNano()) / 1e9
	dt := unix - s.prevUnix
	havePrev := s.prevOK && dt > 0
	seq := s.samples.Load() + 1 // this sample's number; sampleMu orders the writers
	var entries []sampleEntry
	for _, mp := range s.reg.Gather() {
		id := mp.Name + mp.Labels
		switch {
		case mp.Kind == KindHistogram && mp.Hist != nil:
			cur := *mp.Hist
			rate, p50, p95, p99 := math.NaN(), math.NaN(), math.NaN(), math.NaN()
			if prev, ok := s.prevHist[id]; ok && havePrev {
				delta := histDelta(cur, prev)
				rate = float64(delta.Count) / dt
				if delta.Count > 0 {
					p50, p95, p99 = delta.Quantile(0.50), delta.Quantile(0.95), delta.Quantile(0.99)
				}
			}
			s.prevHist[id] = cur
			entries = append(entries,
				sampleEntry{id + ":rate", id, rate},
				sampleEntry{id + ":p50", id, p50},
				sampleEntry{id + ":p95", id, p95},
				sampleEntry{id + ":p99", id, p99})
		case mp.Kind == KindCounter:
			rate := math.NaN()
			if prev, ok := s.prev[id]; ok && havePrev {
				d := mp.Value - prev
				if d < 0 {
					d = 0 // counter reset (restart): clamp, never negative
				}
				rate = d / dt
			}
			s.prev[id] = mp.Value
			entries = append(entries, sampleEntry{id + ":rate", id, rate})
		default: // gauge
			entries = append(entries, sampleEntry{id, id, mp.Value})
		}
	}

	s.mu.Lock()
	for _, e := range entries {
		r := s.series[e.key]
		if r == nil {
			r = &ring{pts: make([]Point, s.capacity), src: e.src}
			s.series[e.key] = r
			i := sort.SearchStrings(s.names, e.key)
			s.names = append(s.names, "")
			copy(s.names[i+1:], s.names[i:])
			s.names[i] = e.key
		}
		r.push(Point{Unix: unix, Value: e.val})
		r.last = seq
	}
	// Evict what no sample has written for a full ring: every point it holds
	// is older than the oldest point of any live series. Its instrument's
	// previous-value entries go with it, so a label that returns starts over
	// (first rate NaN) instead of differencing against a stale total.
	s.names = slices.DeleteFunc(s.names, func(name string) bool {
		r := s.series[name]
		if seq-r.last < uint64(s.capacity) {
			return false
		}
		delete(s.series, name)
		delete(s.prev, r.src)
		delete(s.prevHist, r.src)
		return true
	})
	s.nseries.Store(int64(len(s.series)))
	s.mu.Unlock()

	s.prevUnix, s.prevOK = unix, true
	s.samples.Add(1)
	s.sampleMu.Unlock()

	if s.onSample != nil {
		s.onSample(now)
	}
}

// histDelta subtracts prev from cur bucket-wise (clamped at zero — a
// shrinking cumulative bucket means a reset) and recomputes the totals, so
// quantiles describe only the inter-sample window.
func histDelta(cur, prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Upper: cur.Upper, Counts: make([]uint64, len(cur.Counts))}
	for i := range cur.Counts {
		var p uint64
		if i < len(prev.Counts) {
			p = prev.Counts[i]
		}
		if cur.Counts[i] > p {
			out.Counts[i] = cur.Counts[i] - p
		}
		out.Count += out.Counts[i]
	}
	if cur.Sum > prev.Sum {
		out.Sum = cur.Sum - prev.Sum
	}
	return out
}

// TimeSeriesQuery filters a Query call. The zero value returns everything.
type TimeSeriesQuery struct {
	// Prefixes keeps only series whose name starts with one of the given
	// prefixes; empty keeps all.
	Prefixes []string
	// Range keeps only points within Range of the newest retained sample;
	// 0 keeps the full ring.
	Range time.Duration
	// Step keeps every Step-th point counting back from the newest (the
	// newest point always survives); ≤ 1 keeps all.
	Step int
}

// Series is one named series in a snapshot, points oldest-first.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// TimeSeriesSnapshot is the deterministic JSON document served at
// /v1/debug/timeseries: series sorted by name, points oldest-first.
type TimeSeriesSnapshot struct {
	Schema          string   `json:"schema"`
	IntervalSeconds float64  `json:"interval_seconds"`
	Capacity        int      `json:"capacity"`
	Samples         uint64   `json:"samples"`
	Series          []Series `json:"series"`
}

// Query copies the matching rings out under the read lock.
func (s *Sampler) Query(q TimeSeriesQuery) TimeSeriesSnapshot {
	out := TimeSeriesSnapshot{
		Schema:          TimeSeriesSchema,
		IntervalSeconds: s.every.Seconds(),
		Capacity:        s.capacity,
		Samples:         s.samples.Load(),
		Series:          []Series{},
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, name := range s.names {
		if !matchesAny(name, q.Prefixes) {
			continue
		}
		pts := s.series[name].appendTo(nil)
		if q.Range > 0 && len(pts) > 0 {
			cut := pts[len(pts)-1].Unix - q.Range.Seconds()
			lo := sort.Search(len(pts), func(i int) bool { return pts[i].Unix >= cut })
			pts = pts[lo:]
		}
		if q.Step > 1 && len(pts) > 0 {
			kept := pts[:0]
			for i := range pts {
				if (len(pts)-1-i)%q.Step == 0 {
					kept = append(kept, pts[i])
				}
			}
			pts = kept
		}
		out.Series = append(out.Series, Series{Name: name, Points: pts})
	}
	return out
}

func matchesAny(name string, prefixes []string) bool {
	if len(prefixes) == 0 {
		return true
	}
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// Handler serves the retention rings as JSON. Query parameters:
//
//	series=P1,P2  only series whose name starts with one of the prefixes
//	range=DUR     only points within DUR (Go duration) of the newest sample
//	step=N        every N-th point, newest kept (downsampling)
//
// Mounted at GET /v1/debug/timeseries on muaa-serve's private debug
// listener. Errors use the repo-wide {"error":{code,message}} envelope.
func (s *Sampler) Handler() http.Handler {
	return MethodHandler(map[string]http.HandlerFunc{http.MethodGet: func(w http.ResponseWriter, req *http.Request) {
		var q TimeSeriesQuery
		qs := req.URL.Query()
		if v := qs.Get("series"); v != "" {
			for _, p := range strings.Split(v, ",") {
				if p = strings.TrimSpace(p); p != "" {
					q.Prefixes = append(q.Prefixes, p)
				}
			}
		}
		if v := qs.Get("range"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				WriteError(w, http.StatusBadRequest, "bad_request",
					"range must be a non-negative Go duration (e.g. 5m)")
				return
			}
			q.Range = d
		}
		if v := qs.Get("step"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				WriteError(w, http.StatusBadRequest, "bad_request",
					"step must be a positive integer")
				return
			}
			q.Step = n
		}
		WriteJSON(w, http.StatusOK, s.Query(q))
	}})
}
