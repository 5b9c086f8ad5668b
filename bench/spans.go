package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the bench made (or, for server.* names, one the
// server reported back through /v1/debug/traces). Times are Unix
// nanoseconds so spans from both processes share a clock.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_nano"`
	End    int64  `json:"end_unix_nano"`
	// Req groups the spans of one request (0 for spans outside any request).
	Req uint64 `json:"req,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how the untraced run pays nothing for it. Each sender
// goroutine appends to its own spanBuf; the log is only locked when a
// buffer is handed back.
type spanLog struct {
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func (l *spanLog) id() uint64 {
	if l == nil {
		return 0
	}
	return l.nextID.Add(1)
}

// add records a finished span under a pre-drawn id.
func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// do runs f inside a span and returns the span's id, so f's own spans can
// name it as their parent (the id is drawn before f runs and passed in).
func (l *spanLog) do(name string, parent uint64, f func(id uint64)) {
	id := l.id()
	start := time.Now().UnixNano()
	f(id)
	l.add(span{ID: id, Parent: parent, Name: name, Start: start, End: time.Now().UnixNano()})
}

// spanBuf is one goroutine's private span list.
type spanBuf struct {
	log   *spanLog
	spans []span
}

func (l *spanLog) buf(capacity int) *spanBuf {
	if l == nil {
		return nil
	}
	return &spanBuf{log: l, spans: make([]span, 0, capacity)}
}

func (b *spanBuf) add(s span) {
	if b != nil {
		b.spans = append(b.spans, s)
	}
}

// flush hands the buffer's spans to the log.
func (b *spanBuf) flush() {
	if b == nil {
		return
	}
	b.log.mu.Lock()
	b.log.spans = append(b.log.spans, b.spans...)
	b.log.mu.Unlock()
	b.spans = b.spans[:0]
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (overlapping children are not counted
// twice; a child reaching outside its parent only counts inside it).
func selfTimes(spans []span) map[uint64]int64 {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, at := int64(0), s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < at {
				lo = at
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanTotals is the per-name reduction printed after a traced run.
type spanTotals struct {
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
}

func totalsByName(spans []span) map[string]spanTotals {
	self := selfTimes(spans)
	out := map[string]spanTotals{}
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.TotalUs += float64(s.End-s.Start) / 1e3
		t.SelfUs += float64(self[s.ID]) / 1e3
		out[s.Name] = t
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
