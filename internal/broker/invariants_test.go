package broker

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"muaa/internal/model"
	"muaa/internal/workload"
)

// checkInvariants fails the test when b breaks its contract.
func checkInvariants(t testing.TB, b *Broker) {
	t.Helper()
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// invariantsDuring checks b's contract in a loop beside the caller's traffic
// until the returned stop is called, which then checks once more. Every check
// is a quiesced cut, so the contract must hold at each one; under -race the
// loop also races CheckInvariants' locking against every writer.
func invariantsDuring(t *testing.T, b *Broker) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if err := b.CheckInvariants(); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-done:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	return func() {
		t.Helper()
		close(done)
		wg.Wait()
		checkInvariants(t, b)
	}
}

// billedTraffic is a funnel-on broker after a seeded billed stream: CPM
// charges, CPC/CPA holds, conversions under idempotency keys, top-ups and
// pauses — every book CheckInvariants reads is non-empty.
func billedTraffic(t *testing.T) *Broker {
	t.Helper()
	b := funnelBroker(t, Config{AdTypes: workload.DefaultAdTypes(), Shards: 4})
	specs, stream, err := workload.BrokerLoad(workload.BilledBrokerLoadConfig(16, 600, 41))
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, b, specs)
	// No conversions over the last fifth, so holds are still open at the end;
	// half of those then convert under keys.
	feed := &opFeed{tb: t, b: b}
	for i, op := range stream {
		if op.Kind != workload.OpConvert || i < len(stream)*4/5 {
			feed.apply(op)
		}
	}
	for i, id := range feed.open[:len(feed.open)/2] {
		if _, err := b.Convert(id, fmt.Sprintf("key-%d", i)); err != nil && err != ErrOfferUnknown {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.EscrowHeld <= 0 || st.Conversions == 0 || len(b.billing.idem) == 0 || b.funnel.gathered.Load() == 0 {
		t.Fatalf("traffic left a book empty: %+v, %d keys", st, len(b.billing.idem))
	}
	return b
}

// TestCheckInvariantsCatchesEachRule breaks one rule at a time on a broker
// that holds them all, and demands CheckInvariants name it: a check that
// cannot fail would pass every soak that calls it.
func TestCheckInvariantsCatchesEachRule(t *testing.T) {
	if err := newTestBroker(t).CheckInvariants(); err != nil {
		t.Fatalf("empty broker: %v", err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(b *Broker)
		want    string
	}{
		{"overspend", func(b *Broker) {
			h := b.dir.Load().row(3)
			h.spent.Store(h.budget.Load() + 1)
		}, "exceeds budget"},
		{"negative escrow", func(b *Broker) { b.dir.Load().row(0).escrow.Store(-1) }, "negative"},
		{"spend counter", func(b *Broker) { b.spent.Add(0.5) }, "campaigns spent"},
		{"held counter", func(b *Broker) { b.billing.held.Add(0.5) }, "in escrow, counter"},
		{"conversion counter", func(b *Broker) { b.billing.conversions.Add(1) }, "conversions, counter"},
		{"negative release", func(b *Broker) { b.billing.released.Store(-1) }, "escrow released"},
		{"NaN release", func(b *Broker) { b.billing.released.Store(math.NaN()) }, "escrow released"},
		{"revenue split", func(b *Broker) { b.billing.revenue[model.BillingCPA].Add(0.5) }, "converted revenue"},
		{"negative utility", func(b *Broker) { b.utility.Store(-b.utility.Load() - 1) }, "utility served"},
		{"NaN utility", func(b *Broker) { b.utility.Store(math.NaN()) }, "utility served"},
		{"lost hold", func(b *Broker) {
			bl := b.billing
			for id := range bl.open {
				delete(bl.open, id)
				bl.openCount.Add(-1)
				return
			}
		}, "its open holds sum to"},
		{"open gauge", func(b *Broker) { b.billing.openCount.Add(1) }, "escrow table holds"},
		{"offer id past the sequence", func(b *Broker) {
			bl := b.billing
			for id, o := range bl.open {
				delete(bl.open, id)
				bl.open[bl.nextID] = o
				return
			}
		}, "outside"},
		{"unqueued key", func(b *Broker) { b.billing.idem["ghost"] = struct{}{} }, "idempotency window"},
		{"γ inverted", func(b *Broker) { b.gammaMin.Store(2 * b.gammaMax.Load()) }, "γ bounds"},
		{"funnel row", func(b *Broker) { b.dir.Load().funnel(5)[dispLowScore]++ }, "funnel rows"},
		{"wrong stripe", func(b *Broker) {
			c := b.dir.Load().campaigns[1]
			c.shard = (c.shard + 1) % len(b.shards)
		}, "sits in stripe"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := billedTraffic(t)
			checkInvariants(t, b)
			tc.corrupt(b)
			err := b.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// BenchmarkCheckInvariants prices one check at its largest: the `dense`
// fleet's 8 192 campaigns, the escrow table at its 65 536-offer bound and the
// idempotency window full. A check holds every stripe lock and the billing
// mutex throughout, so ns/op is how long GET /v1/debug/invariants stops
// serving.
func BenchmarkCheckInvariants(b *testing.B) {
	br, err := New(Config{AdTypes: workload.DefaultAdTypes(), Funnel: FunnelConfig{Enabled: true}})
	if err != nil {
		b.Fatal(err)
	}
	arrivals := denseMarket(b, br, false)
	bl := br.billing
	openIDs := func() []uint64 {
		bl.mu.Lock()
		defer bl.mu.Unlock()
		ids := make([]uint64, 0, len(bl.open))
		for id := range bl.open {
			ids = append(ids, id)
		}
		return ids
	}
	fill := func() {
		for at := 0; int(bl.openCount.Load()) < bl.maxOpen; at = (at + 256) % len(arrivals) {
			br.ArriveBatch(arrivals[at : at+256])
		}
	}
	fill()
	for i, id := range openIDs() {
		if _, err := br.Convert(id, fmt.Sprintf("key-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	fill()
	if len(bl.idem) != bl.maxOpen {
		b.Fatalf("idempotency window holds %d keys, want %d", len(bl.idem), bl.maxOpen)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServeInvariants: the debug endpoint answers 200 {"ok":true} on a sound
// broker and the 500 invariant_violated envelope, naming the rule, on a
// broken one.
func TestServeInvariants(t *testing.T) {
	b := billedTraffic(t)
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		b.ServeInvariants(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/invariants", nil))
		return rec
	}
	if rec := get(); rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != `{"ok":true}` {
		t.Fatalf("sound broker: %d %s", rec.Code, rec.Body)
	}
	b.dir.Load().row(2).spent.Store(math.Inf(1))
	rec := get()
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("non-JSON body %q: %v", rec.Body, err)
	}
	if rec.Code != http.StatusInternalServerError || env.Error.Code != "invariant_violated" ||
		!strings.Contains(env.Error.Message, "campaign 2") {
		t.Fatalf("broken broker: %d %+v", rec.Code, env)
	}
}
