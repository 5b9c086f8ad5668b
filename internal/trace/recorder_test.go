package trace

import (
	"sync"
	"testing"
	"time"
)

func mkTrace(d time.Duration, outcome string, anomalous bool) *Trace {
	return &Trace{
		TraceID:   NewTraceID(),
		SpanID:    NewSpanID(),
		Start:     time.Unix(1700000000, 0),
		Duration:  d,
		Outcome:   outcome,
		Anomalous: anomalous,
		Staged:    true,
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(mkTrace(time.Millisecond, OutcomeOffered, false))
	if got := r.Snapshot(Filter{}); got != nil {
		t.Fatalf("nil recorder snapshot = %v, want nil", got)
	}
}

func TestRecorderNewestFirstAndDedup(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 8})
	fast := mkTrace(time.Millisecond, OutcomeOffered, false)
	slow := mkTrace(slowThreshold, OutcomeNoOffers, false) // lands in both rings
	r.Record(fast)
	r.Record(slow)

	got := r.Snapshot(Filter{})
	if len(got) != 2 {
		t.Fatalf("snapshot len = %d, want 2 (dedup across rings)", len(got))
	}
	// Snapshot hands out copies, so identity is the recorded sequence number.
	if got[0].seq != slow.seq || got[1].seq != fast.seq {
		t.Fatal("snapshot not newest-first")
	}
	if !got[0].slow || got[1].slow {
		t.Fatal("slow marking wrong")
	}
	if !slow.slow || fast.slow {
		t.Fatal("slow marking not stamped back onto the caller's trace")
	}
}

func TestRecorderTailRetention(t *testing.T) {
	// Flood the recent ring with fast traces after recording one slow and
	// one anomalous trace: both must survive via the kept ring.
	r := NewRecorder(RecorderOptions{Capacity: 8})
	slow := mkTrace(2*slowThreshold, OutcomeOffered, false)
	anom := mkTrace(time.Millisecond, OutcomeError, true)
	r.Record(slow)
	r.Record(anom)
	for i := 0; i < 100; i++ {
		r.Record(mkTrace(time.Microsecond, OutcomeOffered, false))
	}
	got := r.Snapshot(Filter{})
	var haveSlow, haveAnom bool
	for _, tr := range got {
		if tr.TraceID == slow.TraceID {
			haveSlow = true
		}
		if tr.TraceID == anom.TraceID {
			haveAnom = true
		}
	}
	if !haveSlow {
		t.Error("slow trace evicted despite kept ring")
	}
	if !haveAnom {
		t.Error("anomalous trace evicted despite kept ring")
	}
}

func TestRecorderFilters(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 64})
	for i := 0; i < 10; i++ {
		r.Record(mkTrace(time.Duration(i+1)*time.Millisecond, OutcomeOffered, false))
	}
	r.Record(mkTrace(30*time.Millisecond, OutcomeError, true))

	if got := r.Snapshot(Filter{MinDuration: 5 * time.Millisecond}); len(got) != 7 {
		t.Fatalf("min-duration filter: got %d traces, want 7", len(got))
	}
	if got := r.Snapshot(Filter{Outcome: OutcomeError}); len(got) != 1 || got[0].Outcome != OutcomeError {
		t.Fatalf("outcome filter: got %v", got)
	}
	if got := r.Snapshot(Filter{Limit: 3}); len(got) != 3 {
		t.Fatalf("limit: got %d traces, want 3", len(got))
	}
	for i := 1; i < 11; i++ {
		got := r.Snapshot(Filter{Limit: i})
		for j := 1; j < len(got); j++ {
			if got[j-1].seq <= got[j].seq {
				t.Fatalf("limit %d: not newest-first at %d", i, j)
			}
		}
	}
}

// TestRecorderSoak hammers Record from several goroutines while others
// snapshot continuously; run under -race this is the flight recorder's
// concurrency gate.
func TestRecorderSoak(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 32})
	const writers, perWriter = 4, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				d := time.Duration(i%10) * slowThreshold / 5
				r.Record(mkTrace(d, OutcomeOffered, i%97 == 0))
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := r.Snapshot(Filter{})
				for j := 1; j < len(got); j++ {
					if got[j-1].seq <= got[j].seq {
						t.Error("concurrent snapshot not newest-first")
						return
					}
				}
			}
		}()
	}

	// Writers are done once the sequence counter hits the target; then
	// release the snapshotters.
	target := uint64(writers * perWriter)
	for r.seq.Load() < target {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if got := r.seq.Load(); got != target {
		t.Fatalf("recorded %d traces, want %d", got, target)
	}
}
