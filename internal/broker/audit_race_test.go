package broker

// Regression tests for the debug-refresh path (/v1/debug/audit?refresh=true
// funnels into AuditNow): refreshes may run concurrently with arrivals and
// the background audit ticker without a data race, and a refresh must never
// step the pacing controller — only the ticker (and explicit PacingStep
// callers) advance epochs, so external clients cannot accelerate the control
// loop.

import (
	"sync"
	"testing"
	"time"

	"muaa/internal/pacing"
	"muaa/internal/workload"
)

func auditRaceBroker(t *testing.T, every time.Duration) (*Broker, []workload.BrokerOp) {
	t.Helper()
	const campaigns, ops, seed = 8, 400, 5
	specs, stream, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(campaigns, ops, seed))
	if err != nil {
		t.Fatal(err)
	}
	ctl := pacing.Default()
	b, err := New(Config{
		AdTypes:     workload.DefaultAdTypes(),
		AuditWindow: 256,
		AuditEvery:  every,
		Controller:  &ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	registerLoad(t, b, specs)
	return b, stream
}

// TestAuditRefreshNeverStepsController: with the ticker parked, hammering
// AuditNow concurrently with arrivals recomputes reports but leaves the
// controller untouched — zero epochs, boost 1, no rate caps.
func TestAuditRefreshNeverStepsController(t *testing.T) {
	b, stream := auditRaceBroker(t, time.Hour)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := b.AuditNow(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// The driver also refreshes inline so the test holds even when the
	// background goroutines never get a scheduling slot.
	feed := &opFeed{tb: t, b: b}
	for i, op := range stream {
		feed.apply(op)
		if i%50 == 0 {
			if _, err := b.AuditNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	st := b.Stats()
	if st.PacingEpoch != 0 || st.PhiBoost != 1 {
		t.Fatalf("refresh stepped the controller: epoch %d, boost %g", st.PacingEpoch, st.PhiBoost)
	}
	for _, c := range b.Campaigns() {
		if c.Rate != 1 {
			t.Fatalf("refresh capped campaign %d at rate %g", c.ID, c.Rate)
		}
	}
	if b.AuditReport() == nil {
		t.Fatal("refreshes ran but no report was stored")
	}
}

// TestAuditRefreshTickerRace: arrivals, concurrent debug refreshes, explicit
// controller steps, and a fast background ticker all at once — the -race
// gate's regression for the report/controller interleaving.
func TestAuditRefreshTickerRace(t *testing.T) {
	b, stream := auditRaceBroker(t, time.Millisecond)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // debug refresh client
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := b.AuditNow(); err != nil {
				t.Error(err)
				return
			}
			_ = b.AuditReport()
		}
	}()
	go func() { // operator driving manual epochs
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := b.PacingStep(); err != nil {
				t.Error(err)
				return
			}
			_ = b.Stats()
			_ = b.Campaigns()
		}
	}()
	feed := &opFeed{tb: t, b: b}
	for _, op := range stream {
		feed.apply(op)
	}
	time.Sleep(10 * time.Millisecond) // let the ticker land a few cycles
	// One inline step so the epoch assertion below never depends on the
	// goroutines having been scheduled (single-core runners).
	if _, err := b.PacingStep(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if st := b.Stats(); st.PacingEpoch == 0 {
		t.Fatal("no controller epoch landed despite ticker and manual steps")
	}
}
