package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// RecorderOptions sizes the flight recorder.
type RecorderOptions struct {
	// Capacity is the recent-reservoir size (rounded up to a power of two).
	// ≤ 0 selects 256.
	Capacity int
}

const (
	defaultCapacity = 256
	// keepCapacity is the size of the ring that keeps slow and anomalous
	// traces.
	keepCapacity = 64
	// slowThreshold marks a trace at or above it as slow, which keeps it.
	slowThreshold = 25 * time.Millisecond
)

// ring is a non-blocking overwrite-on-wrap buffer of completed traces.
// Slots hold trace values, not pointers, so the write path never touches
// the heap: a writer claims a slot with one atomic fetch-add and copies
// its trace in under the slot's try-lock. The lock is only ever contended
// when the ring wraps all the way around onto a slot another writer is
// mid-copy in (or a snapshot is reading it); the writer then drops the
// trace instead of blocking, keeping puts wait-free on the arrival path.
type ring struct {
	mask  uint64
	next  atomic.Uint64
	slots []slot
}

// slot pairs a trace value with the try-lock that makes overwrites safe.
// A slot is empty until its first write (seq is never zero once written).
type slot struct {
	mu sync.Mutex
	t  Trace
}

func newRing(capacity int) *ring {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &ring{mask: uint64(n - 1), slots: make([]slot, n)}
}

// put copies t into the next slot. The copy means the caller keeps
// ownership of t — it may live on the caller's stack and be reused.
func (r *ring) put(t *Trace) {
	s := &r.slots[r.next.Add(1)&r.mask]
	if !s.mu.TryLock() {
		return // slot busy after a full wrap-around: drop, never block
	}
	s.t = *t
	s.mu.Unlock()
}

// collect appends a copy of every populated slot to dst.
func (r *ring) collect(dst []*Trace) []*Trace {
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		t := s.t
		s.mu.Unlock()
		if t.seq != 0 {
			c := t
			dst = append(dst, &c)
		}
	}
	return dst
}

// Recorder is the flight recorder: a recent-trace reservoir plus a
// guaranteed-kept ring for slow and anomalous traces, so a flood of fast
// traffic cannot evict the outliers an operator is chasing. A nil
// *Recorder is valid and records nothing.
type Recorder struct {
	seq    atomic.Uint64
	recent *ring
	kept   *ring
}

// NewRecorder builds a flight recorder with the given retention options.
func NewRecorder(o RecorderOptions) *Recorder {
	if o.Capacity <= 0 {
		o.Capacity = defaultCapacity
	}
	return &Recorder{recent: newRing(o.Capacity), kept: newRing(keepCapacity)}
}

// Record files a completed trace by value: the recorder copies *t into its
// rings, so the caller keeps ownership and t can live on the caller's
// stack — recording allocates nothing. Safe for concurrent use; wait-free
// (a writer that lands on a slot still being copied drops the trace rather
// than block). t.seq and t.slow are stamped as a side effect.
func (r *Recorder) Record(t *Trace) {
	if r == nil || t == nil {
		return
	}
	t.seq = r.seq.Add(1)
	t.slow = t.Duration >= slowThreshold
	r.recent.put(t)
	if t.slow || t.Anomalous {
		r.kept.put(t)
	}
}

// Filter selects traces from a Snapshot. Zero values match everything.
type Filter struct {
	// MinDuration keeps only traces at least this long.
	MinDuration time.Duration
	// Outcome keeps only traces with this exact outcome string.
	Outcome string
	// Limit caps the number of traces returned (after sorting newest-first);
	// <= 0 means no cap.
	Limit int
}

// Snapshot returns the matching retained traces, newest-first. Traces held
// in both rings appear once. Safe to call while Record runs concurrently;
// each returned *Trace is a private copy the recorder will never touch
// again.
func (r *Recorder) Snapshot(f Filter) []*Trace {
	if r == nil {
		return nil
	}
	all := make([]*Trace, 0, len(r.recent.slots)+len(r.kept.slots))
	all = r.recent.collect(all)
	all = r.kept.collect(all)

	seen := make(map[uint64]bool, len(all))
	out := all[:0]
	for _, t := range all {
		if seen[t.seq] {
			continue
		}
		seen[t.seq] = true
		if f.MinDuration > 0 && t.Duration < f.MinDuration {
			continue
		}
		if f.Outcome != "" && t.Outcome != f.Outcome {
			continue
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}
