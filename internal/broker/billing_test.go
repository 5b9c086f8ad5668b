package broker

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

// TestEscrowEviction drives deferred offers past the escrow-table bound —
// lowered from maxOpenOffers through the unexported field, since 65 536 open
// holds is no unit test — and checks the table's one hard limit end to end:
// the oldest hold is expired and released back to its campaign, the money
// invariants hold after every call, an evicted offer no longer converts, the
// idempotency window trims to the same bound, and a twin rebuilt from the
// WAL under the same bound reproduces the state bit for bit (evictions are
// not logged: replay re-derives them from the offer sequence).
func TestEscrowEviction(t *testing.T) {
	const bound = 8
	dir := t.TempDir()
	cfg := Config{AdTypes: workload.DefaultAdTypes(), DataDir: dir, WAL: crashWAL()}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	bl := b.billing
	bl.maxOpen = bound
	for i := 0; i < 4; i++ {
		if _, err := b.RegisterCampaignSpec(CampaignSpec{
			Loc: geo.Point{X: 0.5 + 0.02*float64(i), Y: 0.5}, Radius: 0.3, Budget: 4000,
			Tags:    []float64{1, 0.5},
			Billing: model.Billing{Model: model.BillingCPC, ReserveECPM: 1, EventRate: 0.2},
		}); err != nil {
			t.Fatal(err)
		}
	}

	type hold struct {
		id       uint64
		campaign int32
		amount   float64
	}
	var open []hold // the test's model of the table, oldest first
	var released float64
	var firstEvicted uint64
	check := func(step int) {
		t.Helper()
		billedInvariants(t, b)
		escrow := make(map[int32]float64)
		for _, h := range open {
			escrow[h.campaign] += h.amount
			if _, ok := bl.open[h.id]; !ok {
				t.Fatalf("step %d: offer %d should still be open", step, h.id)
			}
		}
		if len(bl.open) != len(open) || int(bl.openCount.Load()) != len(open) {
			t.Fatalf("step %d: table holds %d offers (gauge %d), model %d",
				step, len(bl.open), bl.openCount.Load(), len(open))
		}
		for _, c := range b.Campaigns() {
			if math.Abs(c.Escrow-escrow[c.ID]) > 1e-9 {
				t.Fatalf("step %d: campaign %d escrow %g, open holds sum to %g", step, c.ID, c.Escrow, escrow[c.ID])
			}
		}
		if got := b.Stats().EscrowReleased; math.Abs(got-released) > 1e-9 {
			t.Fatalf("step %d: released %g, evicted holds sum to %g", step, got, released)
		}
	}
	// 2 200 conversions: enough consumed keys for the window's FIFO to run its
	// amortized compaction (head past 1 024 and past half the queue).
	const steps = 2200
	for step := 0; step < steps; step++ {
		offers, err := b.Arrive(slateArrival(3))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range offers {
			if o.ID == 0 || o.Hold <= 0 {
				t.Fatalf("step %d: CPC offer without a hold: %+v", step, o)
			}
			open = append(open, hold{o.ID, o.Campaign, o.Hold})
		}
		for len(open) > bound {
			if firstEvicted == 0 {
				firstEvicted = open[0].id
			}
			released += open[0].amount
			open = open[1:]
		}
		check(step)
		// Convert the newest hold under a fresh key.
		last := open[len(open)-1]
		open = open[:len(open)-1]
		if _, err := b.Convert(last.id, fmt.Sprintf("k%d", step)); err != nil {
			t.Fatalf("step %d: converting open offer %d: %v", step, last.id, err)
		}
		check(step)
	}
	if firstEvicted == 0 || released <= 0 {
		t.Fatal("the stream never overflowed the table; the test is vacuous")
	}
	if _, err := b.Convert(firstEvicted, ""); err != ErrOfferUnknown {
		t.Fatalf("converting evicted offer %d: %v, want ErrOfferUnknown", firstEvicted, err)
	}
	// The key window is the last `bound` keys: an older one is forgotten (the
	// unknown offer is what is reported), a recent one still conflicts.
	if len(bl.idem) != bound || len(bl.idemQ)-bl.idemHead != bound {
		t.Fatalf("idempotency window holds %d keys (queue %d), want %d", len(bl.idem), len(bl.idemQ)-bl.idemHead, bound)
	}
	if len(bl.idemQ) > steps/2 {
		t.Fatalf("idempotency queue never compacted: %d entries for a window of %d", len(bl.idemQ), bound)
	}
	if _, err := b.Convert(1<<40, "k0"); err != ErrOfferUnknown {
		t.Fatalf("trimmed key: %v, want ErrOfferUnknown", err)
	}
	if _, err := b.Convert(1<<40, fmt.Sprintf("k%d", steps-1)); err != ErrDuplicateEvent {
		t.Fatalf("live key: %v, want ErrDuplicateEvent", err)
	}

	// The twin: Recover's own steps (snapshot, then every record) over the
	// directory as a crash would leave it, under the same bound.
	v, err := wal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := newMemory(Config{AdTypes: cfg.AdTypes})
	if err != nil {
		t.Fatal(err)
	}
	twin.billing.maxOpen = bound
	if !v.FullHistory && v.Snapshot != nil {
		if err := twin.applySnapshot(v.Snapshot); err != nil {
			t.Fatal(err)
		}
	}
	for i, rec := range v.Records {
		if err := twin.applyRecord(rec); err != nil {
			t.Fatalf("record %d of %d: %v", i+1, len(v.Records), err)
		}
	}
	if got, want := twin.Stats(), b.Stats(); got != want {
		t.Fatalf("twin stats %+v != live %+v", got, want)
	}
	if !bytes.Equal(twin.encodeSnapshot(), b.encodeSnapshot()) {
		t.Fatal("twin snapshot differs from the live broker's: replayed evictions diverged")
	}
}
