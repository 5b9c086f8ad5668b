package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// A 50 ms server stall must show in the latency of every request that was
// due while it lasted — measured from the due time, not from when the
// generator finally got to send it — and in late, which is the generator's
// own lag. A closed-loop timer would record one slow request and a row of
// fast ones: coordinated omission.
func TestOpenLoopChargesAStallToTheRequestsDueDuringIt(t *testing.T) {
	const (
		rate    = 1000 // one request per millisecond
		n       = 200
		stallAt = 50
		stall   = 50 * time.Millisecond
	)
	var stalled atomic.Bool
	lat, late, err := openLoop(rate, n, 1, func(worker, i int) error {
		if i == stallAt && stalled.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lat[stallAt] < stall {
		t.Errorf("the stalled request took %v, want at least %v", lat[stallAt], stall)
	}
	// Requests 51..90 fell due during the stall. With one connection they
	// could not leave until it ended; request 50+k waited about (50−k) ms.
	for _, k := range []int{1, 10, 25, 40} {
		i, wait := stallAt+k, stall-time.Duration(k)*time.Millisecond
		slack := 5 * time.Millisecond
		if lat[i] < wait-slack {
			t.Errorf("request %d, due %d ms into the stall, reports %v: the wait (≈%v) was omitted", i, k, lat[i], wait)
		}
		if late[i] < wait-slack {
			t.Errorf("request %d left %v late, want ≈%v: late must report the generator's lag", i, late[i], wait)
		}
	}
	// Before the stall the generator keeps to its schedule (a loaded test
	// machine gets 20 ms of grace).
	for i := 0; i < stallAt; i++ {
		if late[i] > 20*time.Millisecond {
			t.Errorf("request %d left %v late with nothing in its way", i, late[i])
			break
		}
	}
	st := reduceOpen(rate, lat, late)
	if st.Sent != n || st.P99us < 40000 || st.LateMax < 40000 {
		t.Errorf("step report %+v: p99 and late_max must carry the stall", st)
	}
	if st.Growing {
		t.Error("a stall that was caught up with is not a growing backlog")
	}
}

func TestOpenLoopReportsAGrowingBacklog(t *testing.T) {
	// A server that needs 2 ms per request, asked for one per millisecond.
	lat, late, err := openLoop(1000, 100, 1, func(worker, i int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := reduceOpen(1000, lat, late); !st.Growing {
		t.Errorf("step report %+v: twice the capacity must read as a growing backlog", st)
	}
}

func TestOpenLoopStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	_, _, err := openLoop(10000, 1000, 2, func(worker, i int) error {
		calls.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c := calls.Load(); c > 100 {
		t.Errorf("%d sends after the failure; the loop must stop", c)
	}
}
