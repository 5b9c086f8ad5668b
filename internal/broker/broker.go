package broker

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/obs"
	"muaa/internal/pacing"
	"muaa/internal/trace"
	"muaa/internal/wal"
)

// Config parameterizes a Broker.
type Config struct {
	// AdTypes is the catalog offered to campaigns; must be non-empty with
	// positive costs.
	AdTypes []model.AdType
	// G is the adaptive-threshold base; zero selects 2e and the broker
	// re-derives it from observed efficiency bounds as traffic accumulates
	// (g = e·γ_max/γ_min, clamped to [2e, 1e9]).
	G float64
	// Pacing, when positive, additionally caps each campaign's spend at
	// Pacing × budget × (hour/24) — classic daily budget pacing: a campaign
	// cannot burn its whole budget on the morning crowd. Pacing = 1 is
	// strictly uniform pacing; values slightly above 1 (e.g. 1.25) leave
	// headroom for bursts. Zero disables pacing. Pacing composes with the
	// adaptive threshold: the threshold picks *which* ads are worth the
	// money, pacing decides *when* money may flow at all.
	Pacing float64
	// Shards is the number of spatial stripes campaign state is partitioned
	// into for concurrent serving, at most 64; zero selects a default scaled
	// to GOMAXPROCS. The shard count never changes results — only how much of
	// the broker an arrival must lock.
	Shards int
	// Metrics, when non-nil, registers the broker's full instrument set on
	// the given registry at construction time: arrival latency histograms
	// (end-to-end and per stage), per-stripe lock/contention counters, scan
	// outcome counters, and live γ/threshold gauges. See docs/OPERATIONS.md
	// for every metric. Instrumentation is observation-only: admission
	// decisions and replay transcripts are identical with or without it.
	Metrics *obs.Registry
	// Tracer, when non-nil, makes ArriveTraced and ArriveBatchTraced cut one
	// trace.Trace per call — a root span plus the four stage child spans,
	// sharing the clock reads the stage histograms already take — and file it
	// in this flight recorder. Nil (the default) disables tracing; Arrive then
	// pays a single pointer check. Like Metrics, tracing is observation-only.
	Tracer *trace.Recorder
	// Logger, when non-nil, receives the broker lifecycle's structured log
	// events (WAL recovery, snapshots, flush errors). Nil discards them.
	Logger *slog.Logger
	// DataDir, when non-empty, makes the broker durable: every state
	// mutation is appended to a write-ahead log in this directory, periodic
	// snapshots compact the log, and New recovers the pre-crash state from
	// it. Empty selects the in-memory broker. The directory must have a
	// single owning process.
	DataDir string
	// WAL tunes the write-ahead log (fsync policy, snapshot cadence,
	// segment retention); ignored when DataDir is empty.
	WAL wal.Options
	// AuditWindow, when positive, keeps the last AuditWindow arrivals (with
	// their committed offers) in a ring and periodically recomputes a
	// window quality report against an offline greedy oracle — the live
	// empirical-ratio/regret/pacing gauges. The capture is a bounded copy
	// outside the stripe locks and the recompute runs on its own goroutine,
	// so the arrival hot path is untouched. Zero disables live auditing.
	AuditWindow int
	// AuditEvery is the interval between window recomputations; zero
	// selects 15s. Ignored when AuditWindow is 0.
	AuditEvery time.Duration
	// Controller, when non-nil, enables the adaptive pacing controller: every
	// audit tick also runs one pacing.Decide step over the fresh window
	// report, steering a multiplicative boost on the admission threshold and
	// per-campaign spend-rate caps (see internal/pacing). Requires
	// AuditWindow > 0 for the feedback signal in live serving; PacingStep can
	// also be driven manually (simulations, tests). Nil disables the
	// controller entirely — the hot path then pays one pointer check.
	Controller *pacing.Config
	// Slate forces auction resolution (the slate rules of the slot race at
	// capacity ≥ 2, per-model revenue accounting) even when no billed
	// campaign is registered. Arrivals are auction-resolved automatically
	// from the moment a campaign registers with a non-fixed billing contract;
	// this flag exists for benchmarks and equivalence tests that exercise the
	// slate rules on an all-fixed fleet. At capacity 1 it changes no
	// decision: both settings race under the same rules (the reference
	// model's slate configurations).
	Slate bool
	// Funnel configures per-campaign decision-funnel attribution (see
	// funnel.go): with Funnel.Enabled every scan records which gate disposed
	// of each gathered candidate in that campaign's own exact counter row,
	// exposed as muaa_funnel_* metrics (the per-campaign family bounded to the
	// top 16 at scrape time) and CampaignFunnel. Observation-only and
	// allocation-free on the hot path; the zero value disables it.
	Funnel FunnelConfig
}

// Campaign is the live state of one vendor's campaign.
type Campaign struct {
	ID     int32
	Loc    geo.Point
	Radius float64
	Budget float64
	Spent  float64
	Tags   []float64
	Paused bool
	// Guaranteed marks an AdCell-style guaranteed-delivery campaign: Floor is
	// the fraction of budget that must be spent by end-of-day (pro-rated by
	// arrival hour — a behind-floor campaign gets relaxed admission and is
	// never throttled), Penalty the per-unit shortfall penalty the gauges
	// report. All zero for best-effort campaigns.
	Guaranteed bool
	Floor      float64
	Penalty    float64
	// Rate is the pacing controller's current spend-rate cap (1 = uncapped).
	Rate float64
	// Billing is the campaign's billing contract (zero = seed fixed-cost).
	Billing model.Billing
	// Escrow is the budget currently held against outstanding CPC/CPA offers
	// awaiting conversion; Converted is the revenue collected by conversions
	// and Conversions their count. All zero for non-deferred campaigns.
	Escrow      float64
	Converted   float64
	Conversions int64
}

// Remaining returns the budget neither spent nor held in escrow — what new
// offers may still draw on, and the line the walk files a campaign as
// exhausted against.
func (c *Campaign) Remaining() float64 { return c.Budget - c.Spent - c.Escrow }

// Offer is one ad pushed to an arriving customer. The billing fields (ID,
// ChargeECPM, Hold, Model) are filled only for campaigns on auction billing;
// a fixed-cost offer carries Cost alone with the rest zero.
type Offer struct {
	Campaign   int32
	AdType     int
	Utility    float64
	Efficiency float64
	// Cost is the budget charged at offer time: the catalog cost for fixed
	// billing, the second-priced CPM charge, and zero for deferred (CPC/CPA)
	// offers, whose charge is escrowed in Hold until conversion.
	Cost float64

	// ID identifies an escrowed offer for POST /v1/events conversion
	// callbacks; zero for offers that are not awaiting conversion.
	ID uint64
	// ChargeECPM is the auction charge in eCPM: min(bid, max(reserve,
	// runner-up bid)). Zero for fixed billing (no auction).
	ChargeECPM float64
	// Hold is the per-event escrow held for a deferred offer
	// (ChargeECPM/1000/EventRate); zero otherwise.
	Hold float64
	// Model is the campaign's billing model.
	Model model.BillingModel
}

// Arrival describes an arriving customer.
type Arrival struct {
	Loc       geo.Point
	Capacity  int
	ViewProb  float64
	Interests []float64
	Hour      float64
}

// Stats is a snapshot of broker counters.
type Stats struct {
	Campaigns     int
	Arrivals      int64
	OffersPushed  int64
	UtilityServed float64
	BudgetSpent   float64
	GammaMin      float64
	GammaMax      float64
	// G is the threshold base, reporting-only and unclamped: the configured
	// value, else e·γ_max/γ_min once two distinct efficiencies were observed
	// (0 before). Admission clamps the derived base to [2e, 1e9];
	// ExplainReport.G reports that in-effect value.
	G float64
	// PhiBoost is the pacing controller's multiplicative boost on the
	// admission threshold (1 on a controller-less broker or before the first
	// epoch); PacingEpoch counts controller steps applied. Both are recovered
	// state: a restart reproduces them bit-exactly.
	PhiBoost    float64
	PacingEpoch int64
	// Billing counters, all zero until a campaign on auction billing serves:
	// EscrowHeld is the budget currently held against open CPC/CPA offers,
	// EscrowReleased the holds expired without conversion, Conversions the
	// conversion events collected and ConversionRevenue their charges (a
	// subset of BudgetSpent). Recovered state, bit-exact across restarts.
	EscrowHeld        float64
	EscrowReleased    float64
	Conversions       int64
	ConversionRevenue float64
}

// Broker is safe for concurrent use: arrivals take only the shard locks
// their query disk overlaps, registration and budget mutation lock one
// shard, and snapshot reads lock nothing.
type Broker struct {
	cfg       Config
	minAdCost float64 // cheapest configured ad type; the exhaustion line
	maxAdCost float64 // dearest configured ad type; the walk's skip affords it

	// exactWalk, set only by tests, walks every candidate through the ad-type
	// loop: the reference arm the walk's skip is compared against.
	exactWalk bool

	// metrics is nil for an uninstrumented broker; set once in New and
	// read-only afterwards, so Arrive checks it without synchronization.
	metrics *brokerMetrics

	// tracer is nil for an untraced broker; like metrics it is set once in
	// New and read-only afterwards.
	tracer *trace.Recorder

	// logger is never nil (a discard logger when Config.Logger was nil), so
	// lifecycle paths log without guarding.
	logger *slog.Logger

	// wal is nil for an in-memory broker; set once during recovery (after
	// replay, so replay itself is never re-logged) and read-only
	// afterwards. Mutation paths check the one pointer and otherwise pay
	// nothing.
	wal *durable

	// audit is nil unless Config.AuditWindow > 0; set once in newMemory and
	// read-only afterwards, so Arrive checks the one pointer.
	audit *auditState

	stripes geo.Stripes
	shards  []shard

	regMu     sync.Mutex            // serializes registrations
	dir       atomic.Pointer[fleet] // dense id → campaign + vendor slab; append-only, see RegisterCampaignSpec
	maxRadius atomicFloat           // monotone max campaign radius

	arrivals atomic.Int64
	offers   atomic.Int64
	utility  atomicFloat
	spent    atomicFloat
	gammaMin atomicFloat // +Inf until the first efficiency is observed
	gammaMax atomicFloat // 0 until the first efficiency is observed

	// controller is nil unless Config.Controller was set; like metrics it is
	// read-only after New. phiBoost (1 when inert) multiplies the admission
	// threshold; pacingEpoch counts applied controller steps. Both are
	// written only under full shard quiescence and WAL-logged, so recovery is
	// bit-exact.
	controller  *pacing.Config
	phiBoost    atomicFloat
	pacingEpoch atomic.Int64

	// billing is the escrow/auction sidecar, always allocated (cheap). Its
	// active flag flips true — monotonically — when the first campaign with
	// a non-fixed contract registers; arrivals check it once, after their
	// stripe locks are held, to pick the slot rules.
	billing *billingState

	// funnel is nil unless Config.Funnel.Enabled; set once in newMemory and
	// read-only afterwards, so the scan gates attribution on one nil check.
	funnel *funnelRegistry
}

// New creates a broker. With cfg.DataDir set it is durable: state is
// recovered from the directory's snapshot+WAL and every later mutation is
// logged (see recoverDurable); otherwise it is empty and purely in-memory.
func New(cfg Config) (*Broker, error) {
	if cfg.DataDir != "" {
		return recoverDurable(cfg)
	}
	return newMemory(cfg)
}

// Validate reports the configuration errors New would: everything that can be
// checked without touching the data directory.
func (cfg *Config) Validate() error {
	if len(cfg.AdTypes) == 0 {
		return errors.New("broker: no ad types configured")
	}
	for k, t := range cfg.AdTypes {
		if !(t.Cost > 0) || t.Effect < 0 {
			return fmt.Errorf("broker: ad type %d (%s) has cost %g / effect %g", k, t.Name, t.Cost, t.Effect)
		}
	}
	if cfg.G != 0 && cfg.G <= math.E {
		return fmt.Errorf("broker: g = %g must exceed e", cfg.G)
	}
	if cfg.Pacing < 0 || math.IsNaN(cfg.Pacing) {
		return fmt.Errorf("broker: pacing factor %g must be ≥ 0", cfg.Pacing)
	}
	if cfg.Shards < 0 || cfg.Shards > maxShards {
		return fmt.Errorf("broker: shard count %d must be in [0, %d]", cfg.Shards, maxShards)
	}
	if cfg.Controller != nil {
		return cfg.Controller.Validate()
	}
	return nil
}

// gridCells is the resolution of each shard's spatial index over the service
// area, the paper's unit square (geo.UnitSquare).
const gridCells = 64

// maxShards bounds the stripe count: each stripe costs a grid and two
// registered per-stripe counter series (DESIGN.md §9 keeps those ≤ 64).
const maxShards = 64

// newMemory builds the in-memory broker every configuration shares;
// recoverDurable layers durability on top.
func newMemory(cfg Config) (*Broker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nShards := cfg.Shards
	if nShards == 0 {
		nShards = defaultShards()
	}
	b := &Broker{
		cfg:     cfg,
		stripes: geo.NewStripes(geo.UnitSquare, nShards, gridCells),
		shards:  make([]shard, nShards),
	}
	for i := range b.shards {
		b.shards[i].grid = geo.NewGrid(geo.UnitSquare, gridCells)
	}
	b.minAdCost, b.maxAdCost = cfg.AdTypes[0].Cost, cfg.AdTypes[0].Cost
	for _, t := range cfg.AdTypes[1:] {
		b.minAdCost, b.maxAdCost = min(b.minAdCost, t.Cost), max(b.maxAdCost, t.Cost)
	}
	b.dir.Store(&fleet{off: []int{0}})
	b.gammaMin.Store(math.Inf(1))
	b.phiBoost.Store(1)
	b.billing = newBillingState()
	if cfg.Controller != nil {
		cc := *cfg.Controller
		b.controller = &cc
	}
	if cfg.AuditWindow > 0 {
		b.audit = newAuditState(cfg.AuditWindow, cfg.AuditEvery)
	}
	if cfg.Funnel.Enabled {
		// Built before the metrics registry hookup: newBrokerMetrics registers
		// the muaa_funnel_* families only when the funnel exists.
		b.funnel = &funnelRegistry{b: b}
	}
	if cfg.Metrics != nil {
		b.metrics = newBrokerMetrics(cfg.Metrics, b)
	}
	b.tracer = cfg.Tracer
	b.logger = cfg.Logger
	if b.logger == nil {
		b.logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	if cfg.DataDir == "" {
		b.startAudit() // a durable broker starts it after replay (recoverDurable)
	}
	return b, nil
}

// defaultShards picks a stripe count wide enough that GOMAXPROCS arrivals
// rarely collide, bounded so tiny boxes don't fragment the index.
func defaultShards() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	if n > maxShards {
		n = maxShards
	}
	return n
}

// CampaignSpec is the full registration record for a campaign: geometry,
// budget, tags, and the AdCell-style delivery class. The zero
// class (Guaranteed false, Floor/Penalty 0) is a best-effort campaign.
type CampaignSpec struct {
	Loc    geo.Point
	Radius float64
	Budget float64
	Tags   []float64
	// Guaranteed marks a guaranteed-delivery campaign. Floor ∈ [0,1] is the
	// fraction of budget that must be spent by end-of-day, pro-rated by
	// arrival hour: while behind it, the campaign's admission threshold is
	// relaxed and the pacing controller never throttles it. Penalty ≥ 0 is
	// the per-unit shortfall penalty reported by muaa_pacing_penalty_exposure
	// (accounting, not admission). Floor and Penalty require Guaranteed.
	Guaranteed bool
	Floor      float64
	Penalty    float64
	// Billing is the campaign's billing contract. The zero value keeps the
	// seed fixed-cost semantics; any non-fixed contract activates the
	// broker's auction resolution for all subsequent arrivals.
	Billing model.Billing
}

// RegisterCampaignSpec adds a campaign with its full spec (delivery class
// included) and returns its ID.
func (b *Broker) RegisterCampaignSpec(spec CampaignSpec) (int32, error) {
	if err := b.Err(); err != nil {
		return 0, err
	}
	// A NaN coordinate has no grid cell (the insert would panic after the WAL
	// record and the directory entry, under the stripe lock) and neither it
	// nor ±Inf renders as JSON; a finite one clamps to an edge cell.
	if !finite(spec.Loc.X) || !finite(spec.Loc.Y) {
		return 0, fmt.Errorf("broker: campaign location (%g, %g)", spec.Loc.X, spec.Loc.Y)
	}
	if spec.Radius < 0 || !finite(spec.Radius) {
		return 0, fmt.Errorf("broker: campaign radius %g", spec.Radius)
	}
	if spec.Budget < 0 || !finite(spec.Budget) {
		return 0, fmt.Errorf("broker: campaign budget %g", spec.Budget)
	}
	if spec.Floor < 0 || spec.Floor > 1 || math.IsNaN(spec.Floor) {
		return 0, fmt.Errorf("broker: campaign delivery floor %g outside [0, 1]", spec.Floor)
	}
	if spec.Penalty < 0 || math.IsNaN(spec.Penalty) {
		return 0, fmt.Errorf("broker: campaign penalty %g must be ≥ 0", spec.Penalty)
	}
	if !spec.Guaranteed && (spec.Floor != 0 || spec.Penalty != 0) {
		return 0, fmt.Errorf("broker: floor/penalty require a guaranteed campaign")
	}
	if err := spec.Billing.Validate(); err != nil {
		return 0, fmt.Errorf("broker: %w", err)
	}
	for i, v := range spec.Tags {
		// A non-finite tag has no Eq. 5 score and no JSON rendering.
		if !finite(v) {
			return 0, fmt.Errorf("broker: campaign tag %d is %g", i, v)
		}
	}
	b.regMu.Lock()
	defer b.regMu.Unlock()
	old := b.dir.Load()
	id := int32(len(old.campaigns))
	if b.wal != nil {
		// Log before publishing the directory entry: any mutation of this
		// campaign can only start after publication, so its record is
		// guaranteed to land after this one and replay never sees a
		// campaign it hasn't registered.
		err := b.logRecord(&DecodedRecord{
			Kind: RecordRegister, Campaign: id, Loc: spec.Loc, Radius: spec.Radius, Budget: spec.Budget,
			Tags: spec.Tags, Guaranteed: spec.Guaranteed, Floor: spec.Floor, Penalty: spec.Penalty,
			Billing: spec.Billing,
		})
		if err != nil {
			return 0, err
		}
	}
	c := &campaign{
		id: id, radius: spec.Radius,
		tags:    append([]float64(nil), spec.Tags...),
		shard:   b.stripes.Of(spec.Loc),
		penalty: spec.Penalty,
	}
	c.rate.Store(1)
	if !spec.Billing.Zero() {
		// Flipped before the directory (and therefore grid) publication: an
		// arrival that can see this campaign as a candidate acquired the
		// shard lock its grid entry was inserted under, so it also sees the
		// flag and is auction-resolved. Monotone — never cleared.
		b.billing.active.Store(true)
	}
	// Publish the directory entry before the grid entry: arrivals discover
	// campaigns only through a shard's grid (under its lock), so a campaign
	// visible in a grid is always resolvable, while a directory entry not
	// yet in a grid is merely invisible to arrivals. The fleet grows in place:
	// the new row is the next one, len(campaigns), and the page row and each
	// append are written past the length of every header published so far, so
	// no reader indexes them, and the atomic store then publishes a longer
	// header over the same pages and backing arrays (or over append's
	// geometric regrowth, which leaves the old array to its readers). The
	// vendor slab entry is the campaign's UnitPearson.Prepare, copied; off's
	// last entry is len(d), so the new run starts where the slab ended.
	var vendor model.UnitPearson
	vendor.Prepare(c.tags)
	d, cov := vendor.Vector()
	next := &fleet{
		campaigns: append(old.campaigns, c),
		rowOf:     append(old.rowOf, id),
		pages:     old.pages,
		d:         append(old.d, d...),
		cov:       append(old.cov, cov),
		laid:      old.laid,
	}
	if id&pageMask == 0 {
		next.pages = append(next.pages, new(page))
	}
	next.off = append(old.off, len(next.d))
	h := next.hotAt(id)
	h.budget.Store(spec.Budget)
	h.allowance.Store(math.Inf(1))
	h.loc, h.floor, h.guaranteed = spec.Loc, spec.Floor, spec.Guaranteed
	w := next.walkAt(id)
	w.billing = spec.Billing
	w.qMin, w.qMax = effBounds(b.cfg.AdTypes, spec.Billing)
	b.dir.Store(next)
	b.maxRadius.Max(spec.Radius)
	sh := &b.shards[c.shard]
	sh.mu.Lock()
	sh.grid.InsertWithRadius(id, spec.Loc, spec.Radius)
	sh.mu.Unlock()
	if n := len(next.campaigns); n-next.laid >= max(n>>relayoutShift, relayoutMin) {
		b.relayout()
	}
	return id, nil
}

// TopUp adds budget to an existing campaign. The amount and the budget it
// leaves must be finite: a budget of +Inf would void every δ = spent/budget
// and cannot be rendered as JSON.
func (b *Broker) TopUp(id int32, amount float64) error {
	if err := b.Err(); err != nil {
		return err
	}
	if amount < 0 || !finite(amount) {
		return fmt.Errorf("broker: top-up amount %g", amount)
	}
	c, err := b.lookup(id)
	if err != nil {
		return err
	}
	// The shard lock serializes budget writes against the check-then-spend
	// sequence of in-flight arrivals touching this campaign; the row is
	// resolved under it, so a re-layout cannot move it in between.
	sh := &b.shards[c.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h := b.dir.Load().row(id)
	budget := h.budget.Load() + amount
	if !finite(budget) {
		return fmt.Errorf("broker: top-up amount %g overflows campaign %d's budget", amount, id)
	}
	if b.wal != nil {
		// Logged first, like a registration: a refused top-up changes nothing.
		if err := b.logRecord(&DecodedRecord{Kind: RecordTopUp, Campaign: id, Amount: amount}); err != nil {
			return err
		}
	}
	h.budget.Store(budget)
	return nil
}

// SetPaused pauses or resumes a campaign; paused campaigns receive no
// traffic but keep their budget.
func (b *Broker) SetPaused(id int32, paused bool) error {
	if err := b.Err(); err != nil {
		return err
	}
	c, err := b.lookup(id)
	if err != nil {
		return err
	}
	// The shard lock puts the flip on the row a re-layout left current, and,
	// when durable, serializes it with its record, so a snapshot (which
	// quiesces all shards) can never capture the flip while the record is
	// still in flight; a refused record flips nothing.
	sh := &b.shards[c.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if b.wal != nil {
		if err := b.logRecord(&DecodedRecord{Kind: RecordPause, Campaign: id, Paused: paused}); err != nil {
			return err
		}
	}
	b.dir.Load().row(id).paused.Store(paused)
	return nil
}

// CampaignState returns a copy of the campaign's live state without
// touching any lock.
func (b *Broker) CampaignState(id int32) (Campaign, error) {
	if _, err := b.lookup(id); err != nil {
		return Campaign{}, err
	}
	return b.dir.Load().snapshot(id), nil
}

// Campaigns returns copies of every campaign's live state, in ID order. The
// read is lock-free: per-campaign values are atomically consistent, the
// set-wide view is a relaxed snapshot.
func (b *Broker) Campaigns() []Campaign {
	fl := b.dir.Load()
	out := make([]Campaign, len(fl.campaigns))
	for i := range out {
		out[i] = fl.snapshot(int32(i))
	}
	return out
}

// ErrUnknownCampaign is wrapped by every operation naming a campaign ID the
// broker never issued; the HTTP layer answers it with 404.
var ErrUnknownCampaign = errors.New("broker: unknown campaign")

// lookup returns campaign id's cold state, which no re-layout moves. Its
// rows are resolved through a header loaded after any covering one: writers
// load it under the campaign's shard lock.
func (b *Broker) lookup(id int32) (*campaign, error) {
	fl := b.dir.Load()
	if id < 0 || int(id) >= len(fl.campaigns) {
		return nil, fmt.Errorf("%w %d", ErrUnknownCampaign, id)
	}
	return fl.campaigns[id], nil
}

// validateArrival is the one door for client-supplied arrival values: every
// bound one must satisfy before it reaches the kernel is checked here. The
// pipeline and Explain share it, so a request explain accepts is one arrive
// accepts. The hour feeds the pacing allowance and the guaranteed-delivery
// floor pro rata (hour/24), so a value outside the day would void both.
// Interest length is not a bound: a mismatch with a campaign's tags makes
// that campaign ineligible, not the arrival invalid.
func validateArrival(a *Arrival) error {
	// The upper bound keeps the capacity inside the 32 bits the arrivals
	// record stores: past it the log would not say what the door admitted.
	if a.Capacity < 0 || a.Capacity > math.MaxInt32 {
		return fmt.Errorf("broker: capacity %d", a.Capacity)
	}
	if a.ViewProb < 0 || a.ViewProb > 1 || math.IsNaN(a.ViewProb) {
		return fmt.Errorf("broker: view probability %g", a.ViewProb)
	}
	if !finite(a.Loc.X) || !finite(a.Loc.Y) {
		return fmt.Errorf("broker: location (%g, %g)", a.Loc.X, a.Loc.Y)
	}
	if a.Hour < 0 || a.Hour > 24 || math.IsNaN(a.Hour) {
		return fmt.Errorf("broker: hour %g outside [0, 24]", a.Hour)
	}
	for i, v := range a.Interests {
		if !finite(v) {
			return fmt.Errorf("broker: interest %d is %g", i, v)
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// lockStripes acquires the stripe locks lo..hi in ascending order — the
// global lock order. With m set, each lock is first probed with TryLock — a
// miss means another holder had it, the contention proxy — and counted. The
// TryLock/Lock pair acquires the same lock in the same order, and no metric
// value feeds back into admission, so the decision sequence is unchanged
// (golden-pinned by TestReplayMatchesGoldenInstrumented).
func (b *Broker) lockStripes(lo, hi int, m *brokerMetrics) {
	for i := lo; i <= hi; i++ {
		if m == nil {
			b.shards[i].mu.Lock()
			continue
		}
		if !b.shards[i].mu.TryLock() {
			m.stripeContended[i].Inc()
			b.shards[i].mu.Lock()
		}
		m.stripeLocks[i].Inc()
	}
}

// unlockStripes releases what lockStripes acquired.
func (b *Broker) unlockStripes(lo, hi int) {
	for i := hi; i >= lo; i-- {
		b.shards[i].mu.Unlock()
	}
}

// quiesce stops every mutator — regMu, then every stripe lock in the global
// order — and returns the matching unlock. A snapshot, a controller epoch and
// CheckInvariants run under it: every mutation appends its record under one
// of these locks, so nothing is in flight while they read or rewrite the
// whole state.
func (b *Broker) quiesce() (unlock func()) {
	b.regMu.Lock()
	b.lockStripes(0, len(b.shards)-1, nil)
	return func() {
		b.unlockStripes(0, len(b.shards)-1)
		b.regMu.Unlock()
	}
}

// Stats returns a lock-free snapshot of the broker counters.
func (b *Broker) Stats() Stats {
	var gs gammaState
	b.gammaSeed(&gs)
	if gs.max == 0 {
		gs.min = 0 // report the unseen state as zeros, not +Inf
	}
	return Stats{
		Campaigns:     len(b.dir.Load().campaigns),
		Arrivals:      b.arrivals.Load(),
		OffersPushed:  b.offers.Load(),
		UtilityServed: b.utility.Load(),
		BudgetSpent:   b.spent.Load(),
		GammaMin:      gs.min,
		GammaMax:      gs.max,
		G:             gs.reportedG(),
		PhiBoost:      b.phiBoost.Load(),
		PacingEpoch:   b.pacingEpoch.Load(),

		EscrowHeld:        b.billing.held.Load(),
		EscrowReleased:    b.billing.released.Load(),
		Conversions:       b.billing.conversions.Load(),
		ConversionRevenue: b.billing.convertedRev.Load(),
	}
}
