package broker

import (
	"errors"
	"sync"
	"sync/atomic"

	"muaa/internal/model"
	"muaa/internal/obs"
)

// Conversion error sentinels, surfaced by the /v1/events handler as its
// error envelope codes.
var (
	// ErrOfferUnknown means the offer ID was never issued, already
	// converted, or expired out of the bounded escrow table.
	ErrOfferUnknown = errors.New("broker: unknown or expired offer")
	// ErrDuplicateEvent means the idempotency key was already consumed by a
	// successful conversion.
	ErrDuplicateEvent = errors.New("broker: duplicate idempotency key")
)

// maxOpenOffers bounds the escrow table of outstanding CPC/CPA offers and the
// conversion idempotency-key window: when a new escrowed offer would exceed
// it, the oldest open offer is expired and its hold released back to the
// campaign.
const maxOpenOffers = 65536

// openOffer is one escrowed CPC/CPA offer awaiting its conversion event.
type openOffer struct {
	campaign int32
	model    model.BillingModel
	hold     float64
}

// billingState is the broker's escrow/auction sidecar. It is always
// allocated (a broker with no billed campaign pays one atomic load per
// arrival); the table and mutex are exercised only by deferred-billing
// offers and conversions.
//
// Lock order: shard lock → mu. Every mutation of escrow money holds the
// campaign's shard lock (offer commits hold it already; Convert takes it),
// so snapshotNow's full shard quiescence excludes all billing mutations and
// the snapshot encoder reads this state without mu.
type billingState struct {
	// active flips true — monotonically, never cleared — when the first
	// campaign with a non-fixed billing contract registers. Arrivals read
	// it once, after their stripe locks are held, to pick the slot resolver.
	active atomic.Bool

	mu sync.Mutex
	// open is the table of outstanding escrowed offers by ID. IDs are
	// assigned monotonically from nextID; evictNext trails as the eviction
	// cursor, so expiring the oldest open offer is a bounded forward scan.
	open      map[uint64]openOffer
	nextID    uint64
	evictNext uint64
	// maxOpen is maxOpenOffers; a field so the eviction tests can lower it.
	maxOpen int
	// idem is the window of consumed idempotency keys, bounded FIFO via
	// idemQ with an amortized-compaction head index.
	idem     map[string]struct{}
	idemQ    []string
	idemHead int

	// Aggregates, atomics so Stats and the gauges read without mu.
	openCount    atomic.Int64
	held         atomicFloat // budget currently escrowed
	released     atomicFloat // holds expired without conversion
	convertedRev atomicFloat // revenue collected by conversions
	conversions  atomic.Int64
	// revenue is charged revenue by billing model: offer-time charges for
	// fixed/CPM, conversion charges for CPC/CPA.
	revenue [model.NumBillingModels]atomicFloat
}

func newBillingState() *billingState {
	return &billingState{
		open:    make(map[uint64]openOffer),
		nextID:  1,
		maxOpen: maxOpenOffers,
		idem:    make(map[string]struct{}),
	}
}

// holdLocked registers an escrowed offer and returns its ID: id 0 issues the
// next one (a live commit), a recorded id is kept (WAL replay, so later
// conversion records resolve). Caller holds the campaign's shard lock and
// bl.mu; the campaign escrow and held accumulators are the caller's to update
// (charge already has c in hand).
func (bl *billingState) holdLocked(c *campaign, m model.BillingModel, hold float64, id uint64) uint64 {
	if id == 0 {
		id = bl.nextID
	}
	if id >= bl.nextID {
		bl.nextID = id + 1
	}
	bl.open[id] = openOffer{campaign: c.id, model: m, hold: hold}
	bl.openCount.Add(1)
	return id
}

// evictLocked expires the oldest open offers until the table is within
// maxOpen, releasing their holds back to their campaigns. Caller holds bl.mu
// and at least one shard lock (so snapshot quiescence excludes the escrow
// writes); the released campaigns' shards need not be locked — escrow
// atomics only race with Stats-style readers, and the money flows back, so
// no admission check can over-spend because of this write.
func (bl *billingState) evictLocked(dir []*campaign) {
	for len(bl.open) > bl.maxOpen {
		for {
			if o, ok := bl.open[bl.evictNext]; ok {
				delete(bl.open, bl.evictNext)
				bl.evictNext++
				c := dir[o.campaign]
				c.escrow.Store(c.escrow.Load() - o.hold)
				bl.held.Add(-o.hold)
				bl.released.Add(o.hold)
				bl.openCount.Add(-1)
				break
			}
			bl.evictNext++
		}
	}
}

// registerKeyLocked consumes an idempotency key, evicting the oldest once
// the window exceeds maxOpen. Caller holds bl.mu.
func (bl *billingState) registerKeyLocked(key string) {
	bl.idem[key] = struct{}{}
	bl.idemQ = append(bl.idemQ, key)
	for len(bl.idemQ)-bl.idemHead > bl.maxOpen {
		delete(bl.idem, bl.idemQ[bl.idemHead])
		bl.idemQ[bl.idemHead] = ""
		bl.idemHead++
	}
	if bl.idemHead > len(bl.idemQ)/2 && bl.idemHead > 1024 {
		n := copy(bl.idemQ, bl.idemQ[bl.idemHead:])
		bl.idemQ = bl.idemQ[:n]
		bl.idemHead = 0
	}
}

// Conversion is the receipt for one collected CPC/CPA conversion event.
type Conversion struct {
	OfferID  uint64
	Campaign int32
	Model    model.BillingModel
	// Charged is the revenue collected: the offer's escrowed hold, moved
	// from escrow to spent.
	Charged float64
}

// Convert collects the conversion event for an escrowed offer: the hold
// moves from the campaign's escrow to its spend, exactly once per offer and
// once per idempotency key. An empty key skips idempotency tracking.
// Returns ErrOfferUnknown for IDs never issued, already converted, or
// expired; ErrDuplicateEvent for a replayed key.
func (b *Broker) Convert(offerID uint64, idemKey string) (Conversion, error) {
	bl := b.billing
	// Phase 1: resolve the offer's campaign (and fail fast on duplicates)
	// under mu alone — the shard to lock isn't known until the table is
	// read, and the lock order is shard → mu.
	bl.mu.Lock()
	if idemKey != "" {
		if _, dup := bl.idem[idemKey]; dup {
			bl.mu.Unlock()
			return Conversion{}, ErrDuplicateEvent
		}
	}
	o, ok := bl.open[offerID]
	bl.mu.Unlock()
	if !ok {
		return Conversion{}, ErrOfferUnknown
	}
	c, err := b.campaign(o.campaign)
	if err != nil {
		return Conversion{}, err
	}
	// Phase 2: re-validate and commit under shard lock → mu. The offer may
	// have been converted or evicted between the phases; the re-check makes
	// the move atomic.
	sh := &b.shards[c.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	bl.mu.Lock()
	if idemKey != "" {
		if _, dup := bl.idem[idemKey]; dup {
			bl.mu.Unlock()
			return Conversion{}, ErrDuplicateEvent
		}
	}
	o, ok = bl.open[offerID]
	if !ok {
		bl.mu.Unlock()
		return Conversion{}, ErrOfferUnknown
	}
	b.settle(c, offerID, o, idemKey)
	bl.mu.Unlock()
	if b.wal != nil {
		b.logRecord(&DecodedRecord{
			Kind: RecordConversion, OfferID: offerID, Campaign: o.campaign, Model: o.model,
			Charge: o.hold, EventKey: idemKey,
		})
	}
	return Conversion{OfferID: offerID, Campaign: o.campaign, Model: o.model, Charged: o.hold}, nil
}

// settle collects open offer id: the table entry and its idempotency key are
// consumed and the hold moves from c's escrow to its spend. The only place a
// conversion moves money, for live events and WAL replay alike, so a replayed
// history repeats the live accumulator sequence bit for bit (charge is the
// offer-time twin). Live callers hold c's shard lock and bl.mu; replay is
// single-goroutine and holds neither.
func (b *Broker) settle(c *campaign, id uint64, o openOffer, key string) {
	bl := b.billing
	delete(bl.open, id)
	if key != "" {
		bl.registerKeyLocked(key)
	}
	bl.openCount.Add(-1)
	c.escrow.Store(c.escrow.Load() - o.hold)
	c.spent.Store(c.spent.Load() + o.hold)
	c.converted.Add(o.hold)
	c.conversions.Add(1)
	bl.held.Add(-o.hold)
	bl.convertedRev.Add(o.hold)
	bl.conversions.Add(1)
	bl.revenue[o.model].Add(o.hold)
	b.spent.Add(o.hold)
}

// registerBillingMetrics registers the muaa_billing_* families on reg.
func registerBillingMetrics(reg *obs.Registry, bl *billingState) {
	reg.NewGaugeFunc("muaa_billing_escrow_open",
		"Open (unconverted, unexpired) escrowed offers.",
		func() float64 { return float64(bl.openCount.Load()) })
	for m := model.BillingModel(0); m.Valid(); m++ {
		acc := &bl.revenue[m]
		reg.NewCounterFunc("muaa_billing_revenue_total",
			"Slate-path charged revenue by billing model (offer-time for fixed/cpm, conversion-time for cpc/cpa).",
			func() float64 { return acc.Load() }, obs.L("model", m.String()))
	}
}
