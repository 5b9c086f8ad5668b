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

// campaign is the broker's internal per-campaign state. Immutable identity
// (id, loc, radius, tags, shard) is set at registration — the campaign's half
// of Eq. 5 is not here but in the fleet's vendor slab, addressed by id; the
// mutable money fields are atomics written only while the owning shard's lock
// is held — the lock serializes the check-then-spend sequence among writers,
// the atomics let Stats/Campaigns read without joining the lock queue.
type campaign struct {
	id     int32
	loc    geo.Point
	radius float64
	tags   []float64
	shard  int // owning stripe index

	// AdCell-style class, immutable after registration: a guaranteed-delivery
	// campaign carries a delivery floor (fraction of budget due by
	// end-of-day, pro-rated by arrival hour) and a per-unit shortfall
	// penalty; best-effort campaigns have all three zero.
	guaranteed bool
	floor      float64
	penalty    float64

	// billing is the campaign's billing contract, immutable after
	// registration. The zero value is the seed fixed-cost contract.
	billing model.Billing

	budget atomicFloat
	spent  atomicFloat
	paused atomic.Bool

	// Deferred-billing money, written only under the owning shard's lock
	// (offer-time holds) or shard lock + billing mutex (conversion,
	// expiry): escrow is budget held against open CPC/CPA offers,
	// converted the revenue collected by conversions, conversions their
	// count. All stay zero for non-deferred campaigns.
	escrow      atomicFloat
	converted   atomicFloat
	conversions atomic.Int64

	// Pacing-controller actuators, written only under the full quiescence
	// PacingStep takes (all shard locks held): rate is the spend-rate cap the
	// last controller epoch chose (1 = uncapped), allowance the epoch's
	// absolute spend ceiling (+Inf = uncapped). Both default to uncapped and
	// stay there on a controller-less broker.
	rate      atomicFloat
	allowance atomicFloat

	// funnel is the campaign's decision-funnel row, one counter per
	// disposition (see funnel.go): plain words, written and read only under the
	// owning shard's lock.
	funnel [numDispositions]uint64
}

// fleet is what a registration publishes, behind the one pointer Broker.dir:
// the dense campaign directory and, beside it, the vendor slab — every
// campaign's half of Eq. 5 (model.UnitPearson: centred tags, their sum of
// squares) back to back and addressed by id, so scoring a candidate streams
// one run of one array instead of chasing the campaign to a vector of its own.
// Campaign id's centred tags are d[off[id]:off[id+1]] — any length, the
// registration door caps no dimension — and cov[id] their sum of squares.
//
// All four slices are append-only and a published fleet is immutable: a
// registration appends past every published length and publishes a new header
// (see RegisterCampaignSpec), so a reader indexes only what its own header
// covers, one load gives one consistent view, and an old header keeps reading
// its own ids correctly whatever regrows after it.
type fleet struct {
	campaigns []*campaign
	d         []float64
	off       []int // len(campaigns)+1 offsets into d
	cov       []float64
}

// vendor returns campaign id's centred tag vector.
func (f *fleet) vendor(id int32) []float64 { return f.d[f.off[id]:f.off[id+1]] }

// snapshot copies the live state into the exported value type.
func (c *campaign) snapshot() Campaign {
	return Campaign{
		ID: c.id, Loc: c.loc, Radius: c.radius,
		Budget: c.budget.Load(), Spent: c.spent.Load(),
		Tags: append([]float64(nil), c.tags...), Paused: c.paused.Load(),
		Guaranteed: c.guaranteed, Floor: c.floor, Penalty: c.penalty,
		Rate:    c.rate.Load(),
		Billing: c.billing,
		Escrow:  c.escrow.Load(), Converted: c.converted.Load(),
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
