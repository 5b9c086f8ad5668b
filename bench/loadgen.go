package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// phase counts the operations (HTTP requests) of one part of a run.
type phase struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

func (p *phase) add(q phase) {
	p.Sent += q.Sent
	p.Succeeded += q.Succeeded
	p.Failed += q.Failed
}

// sender is one connection's worth of load: it sends pre-encoded requests,
// checks every reply, and (dense) converts a seeded share of the offers it
// was just given. Nothing in it is shared with other senders.
type sender struct {
	c    *client
	load *load
	rng  *rand.Rand // picks the offers to convert
	twin *twin      // set only during the verify pass
	ref  bool       // the other end is the reference server (reference.go)

	spans  *spanBuf // nil when untraced
	parent uint64   // span the round trips hang under
	nonce  uint64   // high half of every trace id this run sends

	ops      phase
	arrivals int64 // arrivals answered correctly
	offers   int64
	utility  float64 // what the twin served (verify pass only)
	firstErr error
	broken   bool     // a transport error ended this connection
	reply    reply    // the last fully decoded reply
	last     answered // what the last arrival or batch reply held
	tp       [55]byte
}

func newSender(addr string, l *load, seed int64) (*sender, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &sender{c: c, load: l, rng: rand.New(rand.NewSource(seed))}, nil
}

// traceparent renders the W3C header naming span id as the caller, so the
// server's retained trace can be hung under it afterwards.
func (s *sender) traceparent(seq, id uint64) string {
	b := s.tp[:0]
	b = append(b, "00-"...)
	b = appendHex64(appendHex64(b, s.nonce), seq)
	b = append(b, '-')
	b = appendHex64(b, id)
	b = append(b, "-01"...)
	return string(b)
}

func appendHex64(dst []byte, v uint64) []byte {
	var raw [8]byte
	for i := range raw {
		raw[i] = byte(v >> (56 - 8*uint(i)))
	}
	return hex.AppendEncode(dst, raw[:])
}

func (s *sender) fail(r *request, err error) error {
	s.ops.Failed++
	err = fmt.Errorf("%s %s: %w", s.load.spec.name, firstLine(r.head), err)
	if s.firstErr == nil {
		s.firstErr = err
	}
	return err
}

func firstLine(head []byte) string {
	for i, c := range head {
		if c == '\r' {
			return string(head[:i])
		}
	}
	return string(head)
}

// roundTrip sends one request and checks its reply into s.reply. seq names
// the request in trace ids and spans.
func (s *sender) roundTrip(r *request, seq uint64) (time.Duration, error) {
	var tp string
	var id uint64
	if s.spans != nil {
		id = s.spans.log.id()
		tp = s.traceparent(seq, id)
	}
	s.ops.Sent++
	start := time.Now()
	status, body, err := s.c.do(r, tp)
	lat := time.Since(start)
	if s.spans != nil {
		s.spans.add(span{ID: id, Parent: s.parent, Name: "client.roundtrip", Start: start.UnixNano(), End: start.Add(lat).UnixNano(), Req: seq})
	}
	if err != nil {
		s.broken = true // the position in the byte stream is unknown from here on
		return lat, s.fail(r, err)
	}
	arrival := r.kind == opArrival || r.kind == opBatch
	s.last.offers, s.last.ids = 0, s.last.ids[:0] // a read or a top-up answers nothing
	switch {
	case arrival && s.twin == nil:
		err = scanArrivals(r, status, body, len(s.load.fleet), &s.last)
	case s.ref: // it acknowledges whatever is not an arrival, and holds no state to check
		if status != 200 {
			err = fmt.Errorf("status %d, want 200: %s", status, bytes.TrimSpace(body))
		}
	default:
		if err = check(r, status, body, len(s.load.fleet), &s.reply); err == nil && arrival {
			s.last.note(r, &s.reply)
		}
	}
	if err != nil {
		return lat, s.fail(r, err)
	}
	if s.twin != nil && r.kind != opEvent && r.kind != opRegister {
		u, err := s.twin.expect(r, &s.reply, body)
		if err != nil {
			return lat, s.fail(r, fmt.Errorf("server and twin disagree: %w", err))
		}
		s.utility += u
	}
	s.ops.Succeeded++
	return lat, nil
}

// one performs a traffic request and whatever follows from its reply, and
// returns the sample for it.
func (s *sender) one(r *request, seq uint64) (sample, error) {
	lat, err := s.roundTrip(r, seq)
	if err != nil {
		return sample{lat: lat}, err
	}
	sm := sample{lat: lat, arrivals: int32(len(r.arrivals)), offers: int32(s.last.offers)}
	var convert []uint64
	for _, id := range s.last.ids {
		if s.rng.Float64() < s.load.spec.convertShare {
			convert = append(convert, id)
		}
	}
	s.arrivals += int64(sm.arrivals)
	s.offers += int64(sm.offers)
	for _, id := range convert {
		ev := eventRequest(id)
		if _, err := s.roundTrip(&ev, seq); err != nil {
			return sm, err
		}
		if s.twin != nil {
			if err := s.twin.convert(id, &s.reply); err != nil {
				return sm, s.fail(&ev, err)
			}
		}
	}
	return sm, nil
}

// cursor hands out positions in the request cycle to all senders.
type cursor struct{ next atomic.Uint64 }

func (c *cursor) take() uint64 { return c.next.Add(1) - 1 }

// closedLoop drives the senders flat out — each sends its next request the
// moment the previous reply is checked — until stop() says so, and returns
// the samples with completion times relative to start. Which request a
// sender takes next comes from the shared cursor, so the cycle is consumed
// in order whatever the connection count.
func closedLoop(senders []*sender, reqs []request, cur *cursor, start time.Time, stop func(sent uint64) bool) []sample {
	var wg sync.WaitGroup
	per := make([][]sample, len(senders))
	for i, s := range senders {
		wg.Add(1)
		go func(i int, s *sender) {
			defer wg.Done()
			for {
				seq := cur.take()
				if stop(seq) {
					return
				}
				sm, err := s.one(&reqs[seq%uint64(len(reqs))], seq)
				sm.done = time.Since(start)
				if err == nil {
					per[i] = append(per[i], sm)
				} else if s.broken || s.ops.Failed > maxFailures {
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// maxFailures is how many failed checks a sender tolerates before it gives
// up: the run has failed anyway, and the log should not fill with repeats.
const maxFailures = 100

// openStep is one fixed-rate step of the open loop.
type openStep struct {
	Rate    int     `json:"rate_per_s"`
	Sent    int     `json:"sent"`
	P50us   float64 `json:"p50_us"`
	P99us   float64 `json:"p99_us"`
	P99     tail    `json:"p99"`
	LateUs  float64 `json:"late_mean_us"` // how far behind schedule sends left, on average
	LateMax float64 `json:"late_max_us"`
	// Growing is true when the second half of the step ran later than the
	// first: the backlog was still building when the step ended.
	Growing bool `json:"backlog_growing"`
}

// openLoop sends n requests on a fixed schedule — request i is due at
// start + i/rate whatever happened to the ones before it — through workers
// concurrent callers of send, each passing its own index. Latency runs from the due time, not from the
// actual send, so a stall charges every request that was due during it
// (no coordinated omission); late is how long after its due time each
// request actually left.
func openLoop(rate, n, workers int, send func(worker, i int) error) (lat, late []time.Duration, err error) {
	interval := time.Second / time.Duration(rate)
	lat, late = make([]time.Duration, n), make([]time.Duration, n)
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || firstErr.Load() != nil {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				for {
					wait := time.Until(due)
					if wait <= 0 {
						break
					}
					if wait > 200*time.Microsecond {
						time.Sleep(wait - 100*time.Microsecond)
					} else {
						runtime.Gosched()
					}
				}
				late[i] = time.Since(due)
				if err := send(w, i); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				lat[i] = time.Since(due)
			}
		}(w)
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return nil, nil, e.(error)
	}
	return lat, late, nil
}

// reduceOpen turns one step's raw latencies into its report.
func reduceOpen(rate int, lat, late []time.Duration) openStep {
	samples := make([]sample, len(lat))
	for i, l := range lat {
		samples[i].lat = l
	}
	st := openStep{Rate: rate, Sent: len(lat), P99: tailOf(samples, 0.99)}
	st.P50us, st.P99us = tailOf(samples, 0.50).Us, st.P99.Us
	mean := func(ds []time.Duration) float64 {
		var t time.Duration
		for _, d := range ds {
			t += d
		}
		if len(ds) == 0 {
			return 0
		}
		return float64(t) / float64(len(ds)) / 1e3
	}
	st.LateUs = mean(late)
	for _, d := range late {
		if us := float64(d) / 1e3; us > st.LateMax {
			st.LateMax = us
		}
	}
	first, second := mean(late[:len(late)/2]), mean(late[len(late)/2:])
	st.Growing = second > 2*first+1000
	return st
}
