package broker

import (
	"fmt"
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
// campaign's half of Eq. 5 in the fleet's vendor slab, both at the campaign's
// row index (see fleet); a campaign keeps its *campaign across re-layouts.
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

// copyFrom makes h a copy of o, field by field: the atomics are words, not
// values to assign. Only a re-layout copies a row, with every writer stopped.
func (h *hotRow) copyFrom(o *hotRow) {
	h.budget.Store(o.budget.Load())
	h.spent.Store(o.spent.Load())
	h.escrow.Store(o.escrow.Load())
	h.allowance.Store(o.allowance.Load())
	h.loc, h.floor, h.guaranteed = o.loc, o.floor, o.guaranteed
	h.paused.Store(o.paused.Load())
}

// pageBits sizes a page at 1 024 rows; row&pageMask is a row's slot in its
// page.
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
// walk under the campaign's shard lock. qMin and qMax are the campaign's
// static efficiency bounds per unit of Eq. 4 base (see effBounds), set at
// registration: the walk's test for a candidate that cannot place.
type walkRow struct {
	billing    model.Billing
	memo       powMemo
	qMin, qMax float64
}

// page holds the per-candidate state of the 1 024 rows
// [p<<pageBits, (p+1)<<pageBits): their hot rows, their walk rows and their
// decision-funnel rows (one counter per disposition, plain words under the
// owning shard's lock, see funnel.go). A page is allocated whole when its
// first row is, and a row never moves within its fleet, so a scan over
// ascending rows reads each of the three arrays as one forward stream.
// Allocations this large start on a runtime page boundary, so every row and
// walk row is one aligned line (TestStripeAndPageInvariance).
type page struct {
	rows   [1 << pageBits]hotRow
	walk   [1 << pageBits]walkRow
	funnel [1 << pageBits][numDispositions]uint64
}

// fleet is what a registration or a re-layout publishes, behind the one
// pointer Broker.dir: the dense campaign directory (by id), the id → row map,
// the pages of per-candidate state, and the vendor slab — every campaign's
// half of Eq. 5 (model.UnitPearson: centred tags, their sum of squares) back
// to back — both indexed by row, so scoring a run of candidates streams one
// array instead of chasing each campaign to a vector of its own. The campaign
// at row r has centred tags d[off[r]:off[r+1]] — any length, the registration
// door caps no dimension — and cov[r] their sum of squares.
//
// Rows follow the grids' scan order — by stripe, cell row, cell and
// registration order, the order gather emits candidates in — so an arrival's
// candidates sit on near-consecutive lines. Rows [0, laid) were laid out that
// way by the last re-layout (see relayout); a registration appends the next
// row, and once the rows appended since reach a fixed share of the fleet the
// whole fleet is laid out again. Rows are memory only: the WAL, snapshots,
// offers and every API speak ids.
//
// Between re-layouts all six slices are append-only and a published fleet is
// immutable: a registration writes its page row and appends past every
// published length, then publishes a new header (see RegisterCampaignSpec),
// so a reader indexes only what its own header covers, one load gives one
// consistent view, and an old header keeps reading its own rows whatever
// regrows after it. A re-layout publishes fresh pages and slab under regMu
// and every stripe lock, so every writer — each holds the lock of the
// campaign's shard — loads the header after taking its lock and writes the
// current page. A lock-free reader may still hold a superseded header: its
// values are as old as the re-layout, never torn.
type fleet struct {
	campaigns []*campaign
	rowOf     []int32 // id → row
	pages     []*page
	d         []float64
	off       []int // len(campaigns)+1 offsets into d, by row
	cov       []float64
	laid      int // rows [0, laid) are in scan order; later rows were appended since
}

// hotAt, walkAt and funnelAt return row r's hot row, walk row and
// decision-funnel row.
func (f *fleet) hotAt(r int32) *hotRow { return &f.pages[r>>pageBits].rows[r&pageMask] }

func (f *fleet) walkAt(r int32) *walkRow { return &f.pages[r>>pageBits].walk[r&pageMask] }

func (f *fleet) funnelAt(r int32) *[numDispositions]uint64 {
	return &f.pages[r>>pageBits].funnel[r&pageMask]
}

// vendorAt returns row r's centred tag vector.
func (f *fleet) vendorAt(r int32) []float64 { return f.d[f.off[r]:f.off[r+1]] }

// row, funnel and billing are the by-id views: the same rows, through the
// id → row map.
func (f *fleet) row(id int32) *hotRow { return f.hotAt(f.rowOf[id]) }

func (f *fleet) funnel(id int32) *[numDispositions]uint64 { return f.funnelAt(f.rowOf[id]) }

func (f *fleet) billing(id int32) *model.Billing { return &f.walkAt(f.rowOf[id]).billing }

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

// relayoutShift and relayoutMin set when a registration re-lays the fleet:
// once the rows appended since the last layout reach 1/2^relayoutShift of
// the fleet, and at least relayoutMin rows. The fraction keeps at least 7/8
// of any fleet's rows in scan order and the copying amortized to 2^relayoutShift
// row copies per registration; the floor spares a fleet that fits a few
// kilobytes the page allocations, where locality has nothing to win.
const (
	relayoutShift = 3
	relayoutMin   = 64
)

// relayout lays every row out again in the grids' scan order and publishes
// the new fleet: fresh pages and slab, each row's hot row, walk row, funnel
// row and slab run copied from its old place. The campaigns and their ids do
// not move, and nothing is logged: a row is where a campaign's state sits in
// memory, not part of it. Caller holds regMu, so the grids hold exactly the
// directory's campaigns; relayout takes every stripe lock, so no writer is in
// flight (every writer of a row holds its shard's lock).
func (b *Broker) relayout() {
	b.lockStripes(0, len(b.shards)-1, nil)
	defer b.unlockStripes(0, len(b.shards)-1)
	old := b.dir.Load()
	n := len(old.campaigns)
	order := make([]int32, 0, n)
	for i := range b.shards {
		order = b.shards[i].grid.AppendIDs(order)
	}
	if len(order) != n {
		panic(fmt.Sprintf("broker: the grids index %d campaigns, the directory %d", len(order), n))
	}
	next := &fleet{
		campaigns: old.campaigns,
		rowOf:     make([]int32, n),
		pages:     make([]*page, (n+pageMask)>>pageBits),
		d:         make([]float64, 0, len(old.d)),
		off:       append(make([]int, 0, n+1), 0),
		cov:       make([]float64, 0, n),
		laid:      n,
	}
	for i := range next.pages {
		next.pages[i] = new(page)
	}
	for r, id := range order {
		to, from := int32(r), old.rowOf[id]
		next.rowOf[id] = to
		next.hotAt(to).copyFrom(old.hotAt(from))
		*next.walkAt(to) = *old.walkAt(from)
		*next.funnelAt(to) = *old.funnelAt(from)
		next.d = append(next.d, old.vendorAt(from)...)
		next.off = append(next.off, len(next.d))
		next.cov = append(next.cov, old.cov[from])
	}
	b.dir.Store(next)
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
