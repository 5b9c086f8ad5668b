package broker

// Live and offline quality auditing. The live side keeps a bounded ring of
// recent arrivals (captured after the arrival pipeline returns, outside the
// stripe locks) and periodically recomputes an audit.Report against an
// amortized greedy oracle; gauges read the latest report. The offline side,
// ReplayAudit, rebuilds the full decision stream from a durability
// directory's snapshot + WAL — read-only, through wal.ReadDir and the
// exported record decoders — and hands it to audit.Compute.

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

// capture appends one served arrival to the ring. Runs after the arrival
// pipeline released its stripe locks; the only cost on the serving goroutine
// is one small copy under the ring mutex. Under concurrent arrivals the ring
// order is capture order, not commit order — the window report is an
// approximation by design.
func (s *auditState) capture(a *Arrival, offers []Offer) {
	entry := auditArrival(a, offers)
	// The interests alias the caller's (pooled) request buffer.
	entry.Interests = append([]float64(nil), a.Interests...)
	s.mu.Lock()
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, entry)
	} else {
		s.ring[s.next] = entry
		s.next = (s.next + 1) % len(s.ring)
	}
	s.mu.Unlock()
}

// window copies the ring contents oldest-first.
func (s *auditState) window() []audit.Arrival {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]audit.Arrival, 0, len(s.ring))
	if len(s.ring) == cap(s.ring) {
		out = append(out, s.ring[s.next:]...)
		out = append(out, s.ring[:s.next]...)
	} else {
		out = append(out, s.ring...)
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
	rep, err := audit.Compute(in, audit.Config{Solver: &s.oracle})
	if err != nil {
		return nil, err
	}
	s.report.Store(&rep)
	return &rep, nil
}

// windowInput assembles the audit input for one window copy: current
// campaign states with the window's own spend subtracted back out (the
// oracle may re-spend what the window spent), plus the current γ bounds.
func (b *Broker) windowInput(win []audit.Arrival) audit.Input {
	winSpend := make(map[int32]float64)
	for i := range win {
		for _, o := range win[i].Offers {
			winSpend[o.Campaign] += o.Cost
		}
	}
	campaigns := b.Campaigns()
	acs := make([]audit.Campaign, len(campaigns))
	for i, c := range campaigns {
		before := c.Spent - winSpend[c.ID]
		if before < 0 {
			before = 0
		}
		acs[i] = audit.Campaign{
			ID: c.ID, Loc: c.Loc, Radius: c.Radius, Tags: c.Tags,
			Budget: c.Budget, SpentBefore: before,
			Paused: c.Paused, Billing: c.Billing,
		}
	}
	st := b.Stats()
	return audit.Input{
		Mode:             "window",
		Source:           "live",
		AdTypes:          b.cfg.AdTypes,
		Campaigns:        acs,
		Arrivals:         win,
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
	out := make([]audit.Offer, len(offers))
	for j := range offers {
		o := &offers[j]
		out[j] = audit.Offer{
			Campaign: o.Campaign, AdType: o.AdType, Cost: o.Cost, Utility: o.Utility,
			Model: o.Model, ChargeECPM: o.ChargeECPM,
		}
	}
	return audit.Arrival{
		Loc:       cu.Loc,
		Capacity:  cu.Capacity,
		ViewProb:  cu.ViewProb,
		Interests: cu.Interests,
		Hour:      cu.Hour,
		Offers:    out,
	}
}

// ReplayAudit audits a broker durability directory offline: it reads the
// snapshot and WAL segments read-only (never interfering with a live
// writer's group commit), rebuilds the decision stream through the exported
// record decoders, and computes the quality report. With a retained full
// segment chain (wal.Options.Retain) the audit covers the broker's whole
// life; otherwise it covers the window after the last compaction, with the
// snapshot's accumulators as the pre-window spend.
func ReplayAudit(dir string, cfg AuditConfig) (audit.Report, error) {
	if len(cfg.AdTypes) == 0 {
		return audit.Report{}, fmt.Errorf("broker: ReplayAudit needs the ad-type catalog")
	}
	v, err := wal.ReadDir(dir)
	if err != nil {
		return audit.Report{}, err
	}
	in := audit.Input{
		Mode:    "window",
		Source:  dir,
		AdTypes: cfg.AdTypes,
		G:       cfg.G,
	}
	if v.FullHistory {
		in.Mode = "full-history"
	}
	gammaMin, gammaMax := math.Inf(1), 0.0
	byID := make(map[int32]int)
	if !v.FullHistory && v.Snapshot != nil {
		s, err := DecodeSnapshot(v.Snapshot)
		if err != nil {
			return audit.Report{}, fmt.Errorf("broker: audit snapshot: %w", err)
		}
		for i := range s.Campaigns {
			sc := &s.Campaigns[i]
			byID[sc.ID] = len(in.Campaigns)
			in.Campaigns = append(in.Campaigns, audit.Campaign{
				ID: sc.ID, Loc: sc.Loc, Radius: sc.Radius, Tags: sc.Tags,
				Budget: sc.Budget(), SpentBefore: sc.Spent(),
				Paused: sc.Paused, Billing: sc.Billing(),
			})
			in.EscrowHeld += math.Float64frombits(sc.EscrowBits)
			in.ConvertedRevenue += math.Float64frombits(sc.ConvertedBits)
			in.Conversions += sc.Conversions
		}
		gammaMin, gammaMax = s.GammaMin(), math.Max(gammaMax, s.GammaMax())
	}
	for i, rec := range v.Records {
		d, err := DecodeRecord(rec)
		if err != nil {
			return audit.Report{}, fmt.Errorf("broker: audit record %d of %d: %w", i+1, len(v.Records), err)
		}
		switch d.Kind {
		case RecordRegister:
			byID[d.Campaign] = len(in.Campaigns)
			in.Campaigns = append(in.Campaigns, audit.Campaign{
				ID: d.Campaign, Loc: d.Loc, Radius: d.Radius, Tags: d.Tags,
				Budget: d.Budget, Billing: d.Billing,
			})
		case RecordController:
			// Controller epochs shape which offers were committed, but the
			// committed offers themselves are already in the arrival records;
			// the oracle problem doesn't model the actuators.
		case RecordTopUp:
			ci, ok := byID[d.Campaign]
			if !ok {
				return audit.Report{}, fmt.Errorf("broker: audit record %d tops up unknown campaign %d", i+1, d.Campaign)
			}
			in.Campaigns[ci].Budget += d.Amount
		case RecordPause:
			// Mid-stream pause dynamics are not modeled — a campaign paused
			// for part of the stream keeps its budget, which can only make
			// the oracle stronger. The *final* pause state, however, excludes
			// the campaign from the oracle problem entirely: its budget was
			// out of reach, so a counterfactual spending it would depress the
			// ratio for reasons no admission policy can fix (DESIGN §13).
			ci, ok := byID[d.Campaign]
			if !ok {
				return audit.Report{}, fmt.Errorf("broker: audit record %d pauses unknown campaign %d", i+1, d.Campaign)
			}
			in.Campaigns[ci].Paused = d.Paused
		case RecordArrivals:
			for j := range d.Arrivals {
				e := &d.Arrivals[j]
				gammaMin = math.Min(gammaMin, e.GammaMin)
				gammaMax = math.Max(gammaMax, e.GammaMax)
				in.Arrivals = append(in.Arrivals, auditArrival(&e.Customer, e.Offers))
				for k := range e.Offers {
					in.EscrowHeld += e.Offers[k].Hold
				}
			}
		case RecordConversion:
			// A conversion moves its escrow hold into realized revenue. Holds
			// evicted by the open-offer cap are not logged, so EscrowHeld is
			// an upper bound on streams that overflow the cap.
			in.EscrowHeld -= d.Charge
			in.ConvertedRevenue += d.Charge
			in.Conversions++
		}
	}
	if gammaMax > 0 {
		in.GammaMin, in.GammaMax = gammaMin, gammaMax
	}
	return audit.Compute(in, audit.Config{
		UseRecon: cfg.UseRecon,
		Epsilon:  cfg.Epsilon,
		Workers:  cfg.Workers,
		Seed:     cfg.Seed,
	})
}
