package broker

// Live and offline quality auditing. The live side keeps a bounded ring of
// recent arrivals (captured after the arrival pipeline returns, outside the
// stripe locks) and periodically recomputes an audit.Report against an
// amortized greedy oracle; gauges read the latest report. The offline side,
// ReplayAudit, replays a durability directory's snapshot + WAL (read-only,
// through wal.ReadDir) onto a shadow broker with recovery's own replay, and
// hands the arrival stream and the shadow's books to audit.Compute. Both
// sides build the audit input from a broker's Campaigns and Stats.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"muaa/internal/audit"
	"muaa/internal/core"
	"muaa/internal/model"
	"muaa/internal/obs"
	"muaa/internal/wal"
)

// defaultAuditEvery is the live recompute cadence when Config.AuditEvery is
// zero.
const defaultAuditEvery = 15 * time.Second

// ErrAuditDisabled is returned by AuditNow on a broker built without a live
// audit window (Config.AuditWindow = 0).
var ErrAuditDisabled = errors.New("broker: live audit disabled (AuditWindow = 0)")

// auditState is the broker's live quality-audit sidecar.
type auditState struct {
	mu   sync.Mutex
	ring []audit.Arrival // capacity-bounded; ring[next] is the oldest once full
	next int

	every time.Duration

	// computeMu serializes recomputations (the loop vs AuditNow callers);
	// the ring lock is never held across a solve.
	computeMu sync.Mutex
	oracle    core.WindowOracle
	report    atomic.Pointer[audit.Report]

	stopOnce sync.Once
	stopCh   chan struct{}
	running  sync.WaitGroup // the recompute loop, once started
}

func newAuditState(window int, every time.Duration) *auditState {
	if every <= 0 {
		every = defaultAuditEvery
	}
	return &auditState{
		ring:   make([]audit.Arrival, 0, window),
		every:  every,
		stopCh: make(chan struct{}),
	}
}

// capture writes a window's served arrivals (those whose result carries no
// error) into the ring slots they overwrite, in submission order, after the
// arrival pipeline released its stripe locks. It takes the ring mutex once
// per window and fills each slot in place, copying the arrival's interests
// and offers into that slot's own backing arrays, so once the ring has
// wrapped the serving goroutine allocates nothing. A window's arrivals are
// contiguous in ring order; across concurrent windows the ring order is
// capture order, not commit order — the window report is an approximation
// by design.
func (s *auditState) capture(batch []Arrival, results []BatchResult) {
	s.mu.Lock()
	for i := range results {
		if results[i].Err != nil {
			continue
		}
		var e *audit.Arrival
		if len(s.ring) < cap(s.ring) {
			s.ring = s.ring[:len(s.ring)+1]
			e = &s.ring[len(s.ring)-1]
		} else {
			e = &s.ring[s.next]
			if s.next++; s.next == len(s.ring) {
				s.next = 0
			}
		}
		a := &batch[i]
		e.Loc, e.Capacity, e.ViewProb, e.Hour = a.Loc, a.Capacity, a.ViewProb, a.Hour
		e.Interests = append(e.Interests[:0], a.Interests...)
		e.Offers = appendAuditOffers(e.Offers[:0], results[i].Offers)
	}
	s.mu.Unlock()
}

// window deep-copies the ring oldest-first into two flat arenas, so the
// recompute never reads a slot a later capture rewrites. Until the ring
// wraps next is 0 and the first part is the whole ring.
func (s *auditState) window() []audit.Arrival {
	s.mu.Lock()
	defer s.mu.Unlock()
	nInterests, nOffers := 0, 0
	for i := range s.ring {
		nInterests += len(s.ring[i].Interests)
		nOffers += len(s.ring[i].Offers)
	}
	out := make([]audit.Arrival, 0, len(s.ring))
	interests := make([]float64, 0, nInterests)
	offers := make([]audit.Offer, 0, nOffers)
	for _, part := range [2][]audit.Arrival{s.ring[s.next:], s.ring[:s.next]} {
		for _, e := range part {
			i, o := len(interests), len(offers)
			interests = append(interests, e.Interests...)
			offers = append(offers, e.Offers...)
			e.Interests, e.Offers = interests[i:len(interests):len(interests)], offers[o:len(offers):len(offers)]
			out = append(out, e)
		}
	}
	return out
}

// stop ends the recompute loop and waits for it; a loop never started has
// nothing to wait for.
func (s *auditState) stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.running.Wait()
}

// startAudit launches the recompute loop on a whole broker: an in-memory one
// at construction, a durable one once replay and the boot snapshot are done.
func (b *Broker) startAudit() {
	if b.audit != nil {
		b.audit.running.Add(1)
		go b.auditLoop()
	}
}

// auditLoop recomputes the window report on its own goroutine at the
// configured cadence. Solves never run on an arrival's goroutine.
func (b *Broker) auditLoop() {
	s := b.audit
	defer s.running.Done()
	t := time.NewTicker(s.every)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			if err := b.auditTick(); err != nil {
				b.logger.Error("broker_audit_failed", "error", err.Error())
			}
		}
	}
}

// auditTick is one background audit cycle: recompute the window report, then
// — when the pacing controller is enabled — apply one controller epoch on
// the fresh report. Only the ticker (and explicit PacingStep callers) ever
// step the controller; an externally triggered refresh (AuditNow, e.g.
// /v1/debug/audit?refresh=true) recomputes the report only, so debug
// traffic can race the ticker without accelerating or reordering control
// decisions — recomputes serialize on computeMu, controller application on
// the full shard quiescence applyDecision takes.
func (b *Broker) auditTick() error {
	if _, err := b.AuditNow(); err != nil {
		return err
	}
	if b.controller != nil {
		if _, err := b.PacingStep(); err != nil {
			return err
		}
	}
	return nil
}

// AuditReport returns the latest live window report, or nil before the
// first recompute. The returned report is immutable.
func (b *Broker) AuditReport() *audit.Report {
	if b.audit == nil {
		return nil
	}
	return b.audit.report.Load()
}

// AuditNow recomputes the live window report synchronously and returns it.
// Errors when live auditing is disabled.
func (b *Broker) AuditNow() (*audit.Report, error) {
	s := b.audit
	if s == nil {
		return nil, ErrAuditDisabled
	}
	s.computeMu.Lock()
	defer s.computeMu.Unlock()
	in := b.windowInput(s.window())
	rep, err := audit.Compute(in, audit.Config{Solver: &s.oracle, SkipReplays: true})
	if err != nil {
		return nil, err
	}
	s.report.Store(&rep)
	return &rep, nil
}

// windowInput assembles the audit input for one window copy: the window's
// own spend is subtracted back out of each campaign's (the oracle may
// re-spend what the window spent).
func (b *Broker) windowInput(win []audit.Arrival) audit.Input {
	winSpend := make(map[int32]float64)
	for i := range win {
		for _, o := range win[i].Offers {
			winSpend[o.Campaign] += o.Cost
		}
	}
	return b.auditInput("window", "live", win, func(c *Campaign) float64 {
		return max(c.Spent-winSpend[c.ID], 0)
	})
}

// auditInput is the audit problem of arrivals against the broker's current
// books: every campaign, with spentBefore(c) as its spend before the
// stream, and the γ bounds and billing telemetry of Stats.
func (b *Broker) auditInput(mode, source string, arrivals []audit.Arrival, spentBefore func(c *Campaign) float64) audit.Input {
	campaigns := b.Campaigns()
	acs := make([]audit.Campaign, len(campaigns))
	for i := range campaigns {
		c := &campaigns[i]
		acs[i] = audit.Campaign{
			ID: c.ID, Loc: c.Loc, Radius: c.Radius, Tags: c.Tags,
			Budget: c.Budget, SpentBefore: spentBefore(c),
			Paused: c.Paused, Billing: c.Billing,
		}
	}
	st := b.Stats()
	return audit.Input{
		Mode:             mode,
		Source:           source,
		AdTypes:          b.cfg.AdTypes,
		Campaigns:        acs,
		Arrivals:         arrivals,
		GammaMin:         st.GammaMin,
		GammaMax:         st.GammaMax,
		G:                b.cfg.G,
		EscrowHeld:       st.EscrowHeld,
		ConvertedRevenue: st.ConversionRevenue,
		Conversions:      st.Conversions,
	}
}

// registerAuditMetrics publishes the live-audit gauge family; every gauge
// reads the latest report and costs nothing between scrapes.
func registerAuditMetrics(reg *obs.Registry, b *Broker) {
	latest := func() *audit.Report { return b.audit.report.Load() }
	reg.NewGaugeFunc("muaa_broker_empirical_ratio",
		"Online utility over the window oracle's (0 until the first window recompute).",
		func() float64 {
			if r := latest(); r != nil {
				return r.EmpiricalRatio
			}
			return 0
		})
	buckets := []struct {
		label  string
		lo, hi float64
	}{
		{"0-25", 0, 0.25},
		{"25-50", 0.25, 0.5},
		{"50-75", 0.5, 0.75},
		{"75-100", 0.75, 1},
		{"100", 1, math.Inf(1)},
	}
	for _, bk := range buckets {
		lo, hi := bk.lo, bk.hi
		reg.NewGaugeFunc("muaa_broker_pacing_campaigns",
			"Campaigns whose budget utilization falls in the labeled bucket (last audit window).",
			func() float64 {
				r := latest()
				if r == nil {
					return 0
				}
				n := 0
				for i := range r.CampaignAudits {
					u := r.CampaignAudits[i].Utilization
					if u >= lo && u < hi {
						n++
					}
				}
				return float64(n)
			},
			obs.L("utilization", bk.label))
	}
}

// AuditConfig parameterizes ReplayAudit. AdTypes is required and must be
// the catalog the recorded broker served with.
type AuditConfig struct {
	AdTypes []model.AdType
	// G mirrors Config.G: 0 derives g from the recorded γ bounds.
	G float64
	// UseRecon adds the RECON oracle next to greedy (slower, tighter).
	UseRecon bool
	// Epsilon, Workers and Seed configure the RECON solve.
	Epsilon float64
	Workers int
	Seed    int64
}

// auditArrival converts one arrival and its committed offers into the audit
// stream's shape. Interests are shared with cu, not copied.
func auditArrival(cu *Arrival, offers []Offer) audit.Arrival {
	return audit.Arrival{
		Loc:       cu.Loc,
		Capacity:  cu.Capacity,
		ViewProb:  cu.ViewProb,
		Interests: cu.Interests,
		Hour:      cu.Hour,
		Offers:    appendAuditOffers(make([]audit.Offer, 0, len(offers)), offers),
	}
}

// appendAuditOffers appends the audit stream's shape of offers to dst.
func appendAuditOffers(dst []audit.Offer, offers []Offer) []audit.Offer {
	for j := range offers {
		o := &offers[j]
		dst = append(dst, audit.Offer{
			Campaign: o.Campaign, AdType: o.AdType, Cost: o.Cost, Utility: o.Utility,
			Model: o.Model, ChargeECPM: o.ChargeECPM,
		})
	}
	return dst
}

// ReplayAudit audits a broker durability directory offline: it reads the
// snapshot and WAL segments read-only (never interfering with a live
// writer's group commit), replays them onto a shadow in-memory broker
// through recovery's own replay, and computes the quality report from the
// arrival stream and the shadow's books. With a retained full segment chain
// (wal.Options.Retain) the audit covers the broker's whole life; otherwise
// it covers the window after the last compaction, each campaign's spend at
// the snapshot being its pre-window spend.
func ReplayAudit(dir string, cfg AuditConfig) (audit.Report, error) {
	if len(cfg.AdTypes) == 0 {
		return audit.Report{}, fmt.Errorf("broker: ReplayAudit needs the ad-type catalog")
	}
	v, err := wal.ReadDir(dir)
	if err != nil {
		return audit.Report{}, err
	}
	sh, err := newMemory(Config{AdTypes: cfg.AdTypes, G: cfg.G})
	if err != nil {
		return audit.Report{}, err
	}
	var arrivals []audit.Arrival
	var before []Campaign // the campaigns as the first record found them
	err = sh.replay(v, func(d *DecodedRecord) {
		if before == nil {
			before = sh.Campaigns()
		}
		for i := range d.Arrivals {
			arrivals = append(arrivals, auditArrival(&d.Arrivals[i].Customer, d.Arrivals[i].Offers))
		}
	})
	if err != nil {
		return audit.Report{}, err
	}
	if before == nil {
		before = sh.Campaigns()
	}
	mode := "window"
	if v.FullHistory {
		mode = "full-history"
	}
	in := sh.auditInput(mode, dir, arrivals, func(c *Campaign) float64 {
		if int(c.ID) < len(before) {
			return before[c.ID].Spent
		}
		return 0
	})
	return audit.Compute(in, audit.Config{
		UseRecon: cfg.UseRecon,
		Epsilon:  cfg.Epsilon,
		Workers:  cfg.Workers,
		Seed:     cfg.Seed,
	})
}
