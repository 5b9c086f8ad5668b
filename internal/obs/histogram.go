package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
)

// Histogram counts observations into fixed upper-bound buckets and keeps a
// running sum. Writes are lock-free and internally sharded: each shard owns
// its own bucket array and sum word, so concurrent observers on different
// shards never contend on a cache line — the same stripe discipline the
// broker applies to campaign state. Shards are merged only by Snapshot /
// WriteTextFiltered, which is the cold scrape path.
//
// The bucket layout is fixed at construction and never changes: a histogram
// that re-bucketed itself under load could not be merged across scrapes or
// compared across processes, and the hot path would need a lock to read the
// layout. Choose buckets with ExpBuckets or list the bounds.
type Histogram struct {
	upper  []float64 // ascending finite upper bounds; +Inf bucket is implicit
	shards []histShard
	mask   uint64 // len(shards)-1; shard count is a power of two

	// exemplar holds the largest observation since the last scrape that
	// carried a trace ID (see ObserveShardExemplar); nil when none did.
	// writeSamples consumes it, so each scrape window starts fresh.
	exemplar atomic.Pointer[Exemplar]
}

// Exemplar links one histogram observation to the trace that produced it.
// The histogram keeps only the largest exemplar per scrape window — enough
// to jump from a p99 spike on a dashboard to the trace behind it.
type Exemplar struct {
	Value   float64
	TraceID [16]byte // W3C trace ID, rendered as 32 lowercase hex digits
}

// histShard is one writer lane: a private bucket array plus a sum word.
// Each shard's counts slice is a separate allocation, so two shards never
// share a cache line through the slice backing arrays.
type histShard struct {
	counts  []atomic.Uint64 // len(upper)+1; last is the +Inf bucket
	sumBits atomic.Uint64   // IEEE bits of the running sum, CAS-added
	_       [40]byte        // pad the shard headers apart
}

// newHistogram builds an unregistered histogram over the given finite
// bucket bounds (deduplicated, sorted ascending). It panics on an empty or
// non-finite layout — a histogram with no finite buckets is a counter.
func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("obs: histogram with no buckets")
	}
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	dedup := upper[:1]
	for _, b := range upper[1:] {
		if b != dedup[len(dedup)-1] {
			dedup = append(dedup, b)
		}
	}
	upper = dedup
	for _, b := range upper {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: non-finite histogram bucket %g", b))
		}
	}
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n *= 2
	}
	if n > 64 {
		n = 64
	}
	h := &Histogram{upper: upper, shards: make([]histShard, n), mask: uint64(n - 1)}
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Uint64, len(upper)+1)
	}
	return h
}

// NewHistogram registers and returns a histogram over the given finite
// bucket upper bounds (the +Inf overflow bucket is added automatically).
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	h := newHistogram(buckets)
	r.register(name, help, "histogram", metric{
		name:   name,
		labels: renderLabels(labels),
		hist:   h,
		sample: h.writeSamples,
	})
	return h
}

// Observe records v. The shard is picked by hashing the observation's bits,
// which needs no shared state; callers that already hold a natural lane
// index (the broker passes its stripe index) should prefer ObserveShard,
// which keeps one producer on one lane.
func (h *Histogram) Observe(v float64) {
	bits := math.Float64bits(v)
	// splitmix-style avalanche: latency observations differ mostly in their
	// low mantissa bits, so mix before masking.
	bits ^= bits >> 33
	bits *= 0xff51afd7ed558ccd
	bits ^= bits >> 33
	h.shards[bits&h.mask].observe(h.upper, v)
}

// ObserveShard records v on the writer lane derived from lane (reduced
// modulo the shard count). Distinct concurrent producers passing distinct
// lanes never touch the same cache line.
func (h *Histogram) ObserveShard(lane int, v float64) {
	if lane < 0 {
		lane = -lane
	}
	h.shards[uint64(lane)&h.mask].observe(h.upper, v)
}

// ObserveShardExemplar is ObserveShard plus exemplar capture: when v is the
// largest exemplar-bearing observation since the last scrape, traceID is
// retained and rendered alongside the histogram (as an exposition comment).
// The ID is taken as its 16 bytes, so a traced observation formats nothing;
// the scrape hex-encodes it. The capture is a lock-free CAS-max; losing the
// race just means a larger observation won.
func (h *Histogram) ObserveShardExemplar(lane int, v float64, traceID [16]byte) {
	h.ObserveShard(lane, v)
	if math.IsNaN(v) {
		return
	}
	for {
		cur := h.exemplar.Load()
		if cur != nil && cur.Value >= v {
			return
		}
		if h.exemplar.CompareAndSwap(cur, &Exemplar{Value: v, TraceID: traceID}) {
			return
		}
	}
}

// TakeExemplar returns and clears the current scrape window's exemplar.
func (h *Histogram) TakeExemplar() (Exemplar, bool) {
	e := h.exemplar.Swap(nil)
	if e == nil {
		return Exemplar{}, false
	}
	return *e, true
}

func (s *histShard) observe(upper []float64, v float64) {
	if math.IsNaN(v) {
		return // a NaN belongs to no bucket and would poison the sum
	}
	// Binary-search the first bucket with upper ≥ v; linear scan beats it
	// only below ~8 buckets and latency layouts are larger.
	lo, hi := 0, len(upper)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= upper[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.counts[lo].Add(1)
	for {
		old := s.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a merged, self-consistent view of a histogram.
type HistogramSnapshot struct {
	Upper  []float64 // bucket upper bounds; the final entry is +Inf
	Counts []uint64  // per-bucket (non-cumulative) observation counts
	Sum    float64
	Count  uint64 // total observations == sum(Counts)
}

// Snapshot merges the shards. Concurrent observations may land before or
// after the merge, but every observation is counted exactly once (shard
// counters are only ever added to).
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Upper:  append(append([]float64(nil), h.upper...), math.Inf(1)),
		Counts: make([]uint64, len(h.upper)+1),
	}
	for i := range h.shards {
		s := &h.shards[i]
		for j := range s.counts {
			snap.Counts[j] += s.counts[j].Load()
		}
		snap.Sum += math.Float64frombits(s.sumBits.Load())
	}
	for _, c := range snap.Counts {
		snap.Count += c
	}
	return snap
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// inside the bucket holding it, the standard Prometheus histogram_quantile
// estimate. It returns NaN on an empty histogram; a quantile landing in the
// +Inf bucket reports the highest finite bound (the layout's ceiling).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		hi := s.Upper[i]
		if math.IsInf(hi, 1) {
			return s.Upper[len(s.Upper)-2]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Upper[i-1]
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return s.Upper[len(s.Upper)-2]
}

// writeSamples renders the cumulative le series plus _sum and _count.
func (h *Histogram) writeSamples(w io.Writer, name, labels string) {
	snap := h.Snapshot()
	var cum uint64
	for i, c := range snap.Counts {
		cum += c
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelsWithLe(labels, formatFloat(snap.Upper[i])), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(snap.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, snap.Count)
	// The exposition format has no native exemplar syntax at v0.0.4, so the
	// slowest traced observation rides along as a comment line that every
	// compliant parser skips. Taking it here resets the window per scrape.
	if e, ok := h.TakeExemplar(); ok {
		fmt.Fprintf(w, "# EXEMPLAR %s%s %s trace_id=\"%x\"\n", name, labels, formatFloat(e.Value), e.TraceID)
	}
}

// ExpBuckets returns n exponentially spaced bucket bounds start,
// start·factor, start·factor², … — the usual latency layout. start must be
// positive and factor > 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%g, %g, %d)", start, factor, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}
