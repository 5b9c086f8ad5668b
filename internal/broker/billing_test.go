package broker

// Tests for the escrow oldest-age gauge: the monotone-cursor scan behind
// oldestOpenAge, and the muaa_billing_escrow_oldest_age_seconds exposition
// documented in the billing gauge table.

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"muaa/internal/model"
	"muaa/internal/obs"
	"muaa/internal/workload"
)

// TestOldestOpenAgeCursor pins the gauge's scan semantics against a
// hand-built escrow table: the age tracks the lowest live ID, the cursor
// only moves forward (amortized O(1) across the broker's lifetime), it
// re-syncs with the eviction cursor, and an empty table reads zero while
// fast-forwarding the cursor to nextID.
func TestOldestOpenAgeCursor(t *testing.T) {
	bl := newBillingState(0)
	now := time.Unix(1_700_000_000, 0).UTC()
	if got := bl.oldestOpenAge(now); got != 0 {
		t.Fatalf("empty table: age = %v, want 0", got)
	}
	if bl.oldestNext != bl.nextID {
		t.Fatalf("empty scrape left cursor at %d, want fast-forward to nextID %d", bl.oldestNext, bl.nextID)
	}

	c := &campaign{id: 1}
	var ids [3]uint64
	bl.mu.Lock()
	for i := range ids {
		ids[i] = bl.holdLocked(c, model.BillingCPC, 1, 0)
	}
	// holdLocked stamps wall clock; restamp deterministic ages 30/20/10s.
	for i, id := range ids {
		o := bl.open[id]
		o.born = now.Add(-time.Duration(30-10*i) * time.Second)
		bl.open[id] = o
	}
	bl.mu.Unlock()

	if got := bl.oldestOpenAge(now); got != 30 {
		t.Fatalf("age = %v, want 30 (oldest open hold)", got)
	}
	// Converting the oldest offer moves the scan past its dead ID.
	bl.mu.Lock()
	delete(bl.open, ids[0])
	bl.mu.Unlock()
	if got := bl.oldestOpenAge(now); got != 20 {
		t.Fatalf("age after converting oldest = %v, want 20", got)
	}
	cursor := bl.oldestNext
	if got := bl.oldestOpenAge(now); got != 20 || bl.oldestNext != cursor {
		t.Fatalf("repeat scrape: age %v cursor %d→%d, want stable 20 at %d",
			got, cursor, bl.oldestNext, cursor)
	}
	// The cursor re-syncs when eviction overtakes it.
	bl.mu.Lock()
	delete(bl.open, ids[1])
	bl.evictNext = ids[2]
	bl.mu.Unlock()
	if got := bl.oldestOpenAge(now); got != 10 {
		t.Fatalf("age after eviction passed the cursor = %v, want 10", got)
	}
	if bl.oldestNext < bl.evictNext {
		t.Fatalf("cursor %d trails evictNext %d after a scrape", bl.oldestNext, bl.evictNext)
	}
	// Draining the table reads zero again.
	bl.mu.Lock()
	delete(bl.open, ids[2])
	bl.mu.Unlock()
	if got := bl.oldestOpenAge(now); got != 0 {
		t.Fatalf("drained table: age = %v, want 0", got)
	}
}

// TestEscrowOldestAgeGauge drives real CPC escrow through an instrumented
// slate broker and checks the scrape: the gauge is present and non-negative
// while holds are open, and reads exactly 0 once every hold has converted.
func TestEscrowOldestAgeGauge(t *testing.T) {
	reg := obs.NewRegistry()
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Slate: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	slateFleet(t, b, 4, model.Billing{Model: model.BillingCPC, ReserveECPM: 1, EventRate: 0.2})

	var open []uint64
	for i := 0; i < 8; i++ {
		offers, err := b.Arrive(slateArrival(2))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range offers {
			if o.ID != 0 {
				open = append(open, o.ID)
			}
		}
	}
	if len(open) == 0 {
		t.Fatal("CPC fleet produced no escrowed offers; gauge assertions would be vacuous")
	}

	if got := scrapeGaugeLine(t, reg, "muaa_billing_escrow_oldest_age_seconds"); !strings.HasPrefix(got, "muaa_billing_escrow_oldest_age_seconds ") || strings.Contains(got, "-") {
		t.Fatalf("open escrow scrape line %q, want present and non-negative", got)
	}
	for _, id := range open {
		if _, err := b.Convert(id, ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := scrapeGaugeLine(t, reg, "muaa_billing_escrow_oldest_age_seconds"); got != "muaa_billing_escrow_oldest_age_seconds 0" {
		t.Fatalf("drained escrow scrape line %q, want exactly 0", got)
	}
}

// scrapeGaugeLine scrapes the registry over HTTP and returns the sample line
// for the named metric (failing the test when absent).
func scrapeGaugeLine(t *testing.T, reg *obs.Registry, name string) string {
	t.Helper()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	t.Fatalf("scrape has no %s sample", name)
	return ""
}
