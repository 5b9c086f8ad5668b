package broker

import (
	"math"
	"sync"
	"sync/atomic"

	"muaa/internal/geo"
	"muaa/internal/model"
)

// atomicFloat is a float64 with atomic load/store/add/min/max, stored as IEEE
// bits in a uint64. Mutable campaign money and the broker's global
// accumulators live in these so snapshot readers (Stats, Campaigns) never
// take a lock and never see a torn float.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

// Add folds v into the accumulator with a CAS loop; safe for any number of
// concurrent adders.
func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Min lowers the value to v if v is smaller; concurrent observers converge on
// the true running minimum.
func (f *atomicFloat) Min(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Max raises the value to v if v is larger.
func (f *atomicFloat) Max(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// campaign is a campaign's cold state: what no candidate's scan reads.
// Immutable identity (id, radius, tags, shard) is set at registration; the
// conversion books (converted, conversions) move only under the owning
// shard's lock plus the billing mutex; rate, the pacing controller's spend-rate
// cap (1 = uncapped), only under the full quiescence PacingStep takes. The
// per-candidate state lives in the campaign's page rows (hotRow, walkRow), the
// campaign's half of Eq. 5 in the fleet's vendor slab, both addressed by id.
type campaign struct {
	id      int32
	radius  float64
	tags    []float64
	shard   int     // owning stripe index
	penalty float64 // guaranteed delivery's per-unit shortfall penalty

	converted   atomicFloat
	conversions atomic.Int64
	rate        atomicFloat
}

// hotRow is the first of a campaign's two per-candidate lines (walkRow is the
// second): 64 bytes, 64-aligned, what the filters read. The money and paused
// are atomics written only while the owning shard's lock is held, and the
// lock serializes the check-then-spend sequence among writers while the
// atomics let Stats and Campaigns read without joining the lock queue: escrow
// is budget held against open CPC/CPA offers (zero for other contracts),
// allowance the last controller epoch's absolute spend ceiling (+Inf =
// uncapped; written under PacingStep's full quiescence). loc and the
// AdCell-style class are immutable after registration: a guaranteed-delivery
// campaign carries a delivery floor, the fraction of budget due by end-of-day
// pro-rated by arrival hour.
type hotRow struct {
	budget, spent, escrow, allowance atomicFloat
	loc                              geo.Point
	floor                            float64
	paused                           atomic.Bool
	guaranteed                       bool
}

// pageBits sizes a page at 1 024 campaigns; id&pageMask is a campaign's slot
// in its page.
const (
	pageBits = 10
	pageMask = 1<<pageBits - 1
)

// walkRow is what the walk reads of a campaign beyond the terms columns, one
// 64-byte line: the billing contract (immutable; the zero value is the seed
// fixed-cost contract) and the threshold memo — the last g^δ the walk priced
// for the campaign and the base and δ it priced it at. δ moves only when the
// campaign is charged and the base only when γ's bounds move, so almost every
// candidate reuses the memo, and a memo that matches was computed from the
// same two floats: φ is the same bits either way. The memo is written by the
// walk under the campaign's shard lock.
type walkRow struct {
	billing model.Billing
	memo    powMemo
	_       [16]byte
}

// page holds the per-candidate state of the 1 024 campaigns with ids
// [p<<pageBits, (p+1)<<pageBits): their hot rows, their walk rows and their
// decision-funnel rows (one counter per disposition, plain words under the
// owning shard's lock, see funnel.go). A page is allocated whole when the
// first of its ids registers and never moves, so a scan over ascending ids
// reads each of the three arrays as one forward stream. Allocations this large
// start on a runtime page boundary, so every row and walk row is one aligned
// line (TestStripeAndPageInvariance).
type page struct {
	rows   [1 << pageBits]hotRow
	walk   [1 << pageBits]walkRow
	funnel [1 << pageBits][numDispositions]uint64
}

// fleet is what a registration publishes, behind the one pointer Broker.dir:
// the dense campaign directory, the pages of per-candidate state, and the
// vendor slab — every campaign's half of Eq. 5 (model.UnitPearson: centred
// tags, their sum of squares) back to back and addressed by id, so scoring a
// candidate streams one run of one array instead of chasing the campaign to a
// vector of its own. Campaign id's centred tags are d[off[id]:off[id+1]] —
// any length, the registration door caps no dimension — and cov[id] their sum
// of squares.
//
// All five slices are append-only and a published fleet is immutable: a
// registration writes its page row and appends past every published length,
// then publishes a new header (see RegisterCampaignSpec), so a reader indexes
// only what its own header covers, one load gives one consistent view, and an
// old header keeps reading its own ids correctly whatever regrows after it.
type fleet struct {
	campaigns []*campaign
	pages     []*page
	d         []float64
	off       []int // len(campaigns)+1 offsets into d
	cov       []float64
}

// vendor returns campaign id's centred tag vector.
func (f *fleet) vendor(id int32) []float64 { return f.d[f.off[id]:f.off[id+1]] }

// row returns campaign id's hot row.
func (f *fleet) row(id int32) *hotRow {
	return &f.pages[id>>pageBits].rows[id&pageMask]
}

// funnel returns campaign id's decision-funnel row.
func (f *fleet) funnel(id int32) *[numDispositions]uint64 {
	return &f.pages[id>>pageBits].funnel[id&pageMask]
}

// walkRow returns campaign id's walk row.
func (f *fleet) walkRow(id int32) *walkRow {
	return &f.pages[id>>pageBits].walk[id&pageMask]
}

// billing returns campaign id's billing contract.
func (f *fleet) billing(id int32) *model.Billing { return &f.walkRow(id).billing }

// snapshot copies campaign id's live state into the exported value type.
func (f *fleet) snapshot(id int32) Campaign {
	c, h := f.campaigns[id], f.row(id)
	return Campaign{
		ID: id, Loc: h.loc, Radius: c.radius,
		Budget: h.budget.Load(), Spent: h.spent.Load(),
		Tags: append([]float64(nil), c.tags...), Paused: h.paused.Load(),
		Guaranteed: h.guaranteed, Floor: h.floor, Penalty: c.penalty,
		Rate:    c.rate.Load(),
		Billing: *f.billing(id),
		Escrow:  h.escrow.Load(), Converted: c.converted.Load(),
		Conversions: c.conversions.Load(),
	}
}

// shard owns the campaigns whose centers fall in one horizontal stripe of
// the service area: a spatial index over them, guarded by mu (the grid's
// int32 entries resolve through the broker's dense campaign directory).
// Arrivals lock the contiguous stripe range their query disk overlaps
// (ascending — the global lock order), so arrivals in disjoint regions
// proceed in parallel.
type shard struct {
	mu   sync.Mutex
	grid *geo.Grid

	// arena is the reusable scan scratch owned by whoever holds this shard's
	// lock as the lowest stripe of a locked interval — see scanArena for the
	// ownership rule. Only ever touched under mu.
	arena scanArena

	_ [64]byte // keep hot shard locks on separate cache lines
}
