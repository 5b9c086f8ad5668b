package audit

import (
	"fmt"
	"math"
	"sort"

	"muaa/internal/core"
	"muaa/internal/geo"
	"muaa/internal/model"
)

// Offer is one committed ad: campaign charged, ad type served, and the cost
// and utility the broker accounted at commit time. Model and ChargeECPM
// carry the billing outcome for auction-priced offers (both zero for the
// seed fixed-cost contract): CPM offers realized Cost = ChargeECPM/1000 at
// commit, deferred (CPC/CPA) offers realized nothing yet — their expected
// revenue is ChargeECPM/1000, held in escrow until conversion.
type Offer struct {
	Campaign   int32
	AdType     int
	Cost       float64
	Utility    float64
	Model      model.BillingModel
	ChargeECPM float64
}

// revenue is the offer's expected revenue at commit time: the realized cost
// for immediate models, the rate-weighted escrow hold for deferred ones.
func (o *Offer) revenue() float64 {
	if o.Model.Deferred() {
		return o.ChargeECPM / 1000
	}
	return o.Cost
}

// Arrival is one customer arrival as the decision stream recorded it: the
// customer's own features and the offers committed for it.
type Arrival struct {
	Loc       geo.Point
	Capacity  int
	ViewProb  float64
	Interests []float64
	Hour      float64
	Offers    []Offer
}

// Campaign is one campaign's state over the audited stream: its geometry and
// tags, the budget in force at the end of the stream (top-ups included), and
// the spend already committed before the stream began (0 in full-history
// mode; the snapshot's accumulator in window mode).
type Campaign struct {
	ID          int32
	Loc         geo.Point
	Radius      float64
	Tags        []float64
	Budget      float64
	SpentBefore float64
	// Paused is the campaign's pause state at the end of the audited stream
	// (the state the live window sees "now"). Paused campaigns are excluded
	// from the oracle problem entirely: the online broker was forbidden to
	// spend their budgets, so a counterfactual that spends them measures
	// nothing any admission policy could achieve (the DESIGN.md §12 exclusion).
	Paused bool
	// Billing is the campaign's billing contract; the zero value is the seed
	// fixed-cost contract. It prices the oracle assignment's revenue.
	Billing model.Billing
}

// Input is everything Compute needs: the decision stream and the broker
// configuration that shaped it.
type Input struct {
	// Mode labels the report: "full-history" or "window".
	Mode   string
	Source string

	AdTypes   []model.AdType
	Campaigns []Campaign
	Arrivals  []Arrival

	// GammaMin/GammaMax are the observed efficiency bounds at the end of the
	// stream (0/0 when nothing was observed).
	GammaMin float64
	GammaMax float64
	// G, when positive, is the configured competitive-factor parameter;
	// otherwise g derives from the observed bounds exactly as the broker's
	// threshold derivation does.
	G float64

	// End-of-stream billing telemetry, computed by the caller from its
	// decision source (the stats counters live, the conversion records on
	// replay) and copied into the report verbatim.
	EscrowHeld       float64
	ConvertedRevenue float64
	Conversions      int64
}

// Config selects the offline references.
type Config struct {
	// UseRecon adds a core.Recon solve (the paper's offline contribution)
	// next to the always-on greedy reference. Off for the live window path,
	// where recompute latency matters more than oracle tightness.
	UseRecon bool
	// Epsilon, Workers and Seed configure the Recon solve (see core.Recon).
	Epsilon float64
	Workers int
	Seed    int64
	// Solver, when non-nil, is the greedy reference's scratch — the live
	// window loop passes its amortized oracle here; nil solves with fresh
	// scratch. The report's θ comes from the oracle's own gather.
	Solver *core.WindowOracle
	// SkipReplays leaves out the three fixed-threshold replays: the
	// RegretByDelta rows keep δ and φ, which the pacing controller reads,
	// and carry no Utility or Regret. On for the live window, whose
	// recompute is on the control path; muaa-audit computes the full rows.
	SkipReplays bool
}

// deltaPoints are the budget-consumption points the fixed-threshold
// counterfactuals are evaluated at; they mirror the broker's per-δ
// threshold gauges.
var deltaPoints = [...]float64{0, 0.5, 1}

// safePreference is the serving broker's scorer — the paper's Pearson
// preference under uniform activity, so the oracle prices utilities the way
// the broker did — guarded the way the broker guards it: a pair whose
// interest/tag dimensions differ scores 0 (the broker's ineligibility rule)
// where model.PearsonPreference would panic.
type safePreference struct{}

func (safePreference) Score(u *model.Customer, v *model.Vendor, hour float64) float64 {
	if len(u.Interests) != len(v.Tags) {
		return 0
	}
	return model.PearsonPreference{Activity: model.UniformActivity{}}.Score(u, v, hour)
}

// Compute audits one decision stream. It is deterministic: the same Input
// and Config yield the same Report, byte for byte once encoded.
func Compute(in Input, cfg Config) (Report, error) {
	if len(in.AdTypes) == 0 {
		return Report{}, fmt.Errorf("audit: no ad types")
	}

	// Per-campaign accounting, in input order for the stream replay but
	// reported sorted by ID.
	byID := make(map[int32]int, len(in.Campaigns))
	audits := make([]CampaignAudit, len(in.Campaigns))
	excluded := make([]float64, len(in.Campaigns)) // spend by non-audited arrivals
	for i, c := range in.Campaigns {
		if _, dup := byID[c.ID]; dup {
			return Report{}, fmt.Errorf("audit: duplicate campaign id %d", c.ID)
		}
		byID[c.ID] = i
		audits[i] = CampaignAudit{
			ID:          c.ID,
			Budget:      c.Budget,
			SpentBefore: c.SpentBefore,
			SpentTotal:  c.SpentBefore,
		}
	}

	rep := Report{
		Schema:           ReportSchema,
		Mode:             in.Mode,
		Source:           in.Source,
		Arrivals:         len(in.Arrivals),
		Campaigns:        len(in.Campaigns),
		GammaMin:         in.GammaMin,
		GammaMax:         in.GammaMax,
		EscrowHeld:       in.EscrowHeld,
		ConvertedRevenue: in.ConvertedRevenue,
		Conversions:      in.Conversions,
	}
	for i := range in.Campaigns {
		if in.Campaigns[i].Paused {
			rep.PausedCampaigns++
		}
	}

	// Replay the stream: charge every offer in commit order (for immediate
	// charges the same serial float accumulation the broker performed, so
	// SpentTotal is bit-exact; conversion charges are not in the stream),
	// and collect the audited arrivals for the oracle problem.
	type chargeMark struct {
		campaign, arrival int
		cost              float64
	}
	nOffers := 0
	for ai := range in.Arrivals {
		nOffers += len(in.Arrivals[ai].Offers)
	}
	marks := make([]chargeMark, 0, nOffers) // offer charge points, for the pacing deciles
	onlineMix := make([]int, len(in.AdTypes))
	audited := make([]int, 0, len(in.Arrivals))
	for ai := range in.Arrivals {
		a := &in.Arrivals[ai]
		isAudited := a.Capacity > 0
		if isAudited {
			audited = append(audited, ai)
			rep.HourFraction = math.Min(math.Max(a.Hour/24, 0), 1)
		}
		for oi := range a.Offers {
			o := &a.Offers[oi]
			ci, ok := byID[o.Campaign]
			if !ok {
				return Report{}, fmt.Errorf("audit: offer for unknown campaign %d", o.Campaign)
			}
			if o.AdType < 0 || o.AdType >= len(in.AdTypes) {
				return Report{}, fmt.Errorf("audit: offer ad type %d outside catalog of %d", o.AdType, len(in.AdTypes))
			}
			rep.Offers++
			ca := &audits[ci]
			ca.SpentTotal += o.Cost
			ca.SpentWindow += o.Cost
			marks = append(marks, chargeMark{campaign: ci, arrival: ai, cost: o.Cost})
			if isAudited {
				ca.OnlineUtility += o.Utility
				rep.OnlineUtility += o.Utility
				rep.OnlineRevenue += o.revenue()
				onlineMix[o.AdType]++
			} else {
				excluded[ci] += o.Cost
			}
		}
	}
	rep.AuditedArrivals = len(audited)

	// The static oracle problem: audited arrivals become customers in stream
	// order; every campaign becomes a vendor whose budget is what the online
	// broker had available for the audited stream — end budget minus the
	// spend already gone before the window and the spend of arrivals the
	// oracle cannot see.
	p := &model.Problem{
		AdTypes:    in.AdTypes,
		Customers:  make([]model.Customer, 0, len(audited)),
		Vendors:    make([]model.Vendor, 0, len(in.Campaigns)),
		Preference: safePreference{},
		MinDist:    model.DefaultMinDist,
	}
	for i, ai := range audited {
		a := &in.Arrivals[ai]
		p.Customers = append(p.Customers, model.Customer{
			ID: int32(i), Loc: a.Loc, Capacity: a.Capacity, ViewProb: a.ViewProb,
			Interests: a.Interests, Arrival: a.Hour,
		})
	}
	for i, c := range in.Campaigns {
		budget := c.Budget - c.SpentBefore - excluded[i]
		if budget < 0 || math.IsNaN(budget) {
			budget = 0
		}
		p.Vendors = append(p.Vendors, model.Vendor{
			ID: int32(i), Loc: c.Loc, Radius: c.Radius, Budget: budget, Tags: c.Tags,
			Paused: c.Paused,
		})
	}
	if err := p.Validate(); err != nil {
		return Report{}, fmt.Errorf("audit: assembling oracle problem: %w", err)
	}

	// Offline references.
	offline := cfg.Solver
	if offline == nil {
		offline = new(core.WindowOracle)
	}
	best, err := offline.Solve(p)
	if err != nil {
		return Report{}, fmt.Errorf("audit: %s solve: %w", offline.Name(), err)
	}
	rep.GreedyUtility = best.Utility
	rep.OracleUtility, rep.OracleSolver = best.Utility, offline.Name()
	if cfg.UseRecon {
		recon := core.Recon{Epsilon: cfg.Epsilon, Workers: cfg.Workers, Seed: cfg.Seed}
		ra, err := recon.Solve(p)
		if err != nil {
			return Report{}, fmt.Errorf("audit: RECON solve: %w", err)
		}
		rep.ReconUtility = ra.Utility
		if ra.Utility > rep.OracleUtility {
			rep.OracleUtility, rep.OracleSolver = ra.Utility, recon.Name()
			best = ra
		}
	}
	// The online outcome is itself feasible for the static problem, so the
	// tightest known lower bound on the offline optimum includes it.
	if rep.OnlineUtility > rep.OracleUtility {
		rep.OracleUtility, rep.OracleSolver = rep.OnlineUtility, "ONLINE"
	}

	switch {
	case rep.OracleUtility > 0:
		rep.EmpiricalRatio = rep.OnlineUtility / rep.OracleUtility
	default:
		rep.EmpiricalRatio = 1 // nothing achievable, nothing achieved
	}
	rep.Regret = math.Max(0, rep.OracleUtility-rep.OnlineUtility)

	// The paper's bound, from observed g.
	rep.Theta = offline.Theta()
	rep.GObserved = observedG(in)
	if rep.Theta > 0 {
		rep.CompetitiveBound = (math.Log(rep.GObserved) + 1) / rep.Theta
		rep.BoundSatisfied = rep.EmpiricalRatio >= 1/rep.CompetitiveBound
	} else {
		rep.BoundSatisfied = true // bound undefined: nothing to violate
	}

	// Fixed-threshold counterfactuals at the three reference δ points: the
	// stream replayed through the paper's Alg. 2 with φ pinned — the serving
	// broker's admission shape, pacing not modeled.
	for _, delta := range deltaPoints {
		// The broker's adaptive threshold frozen at consumption point δ; 0
		// before any observation (γ_min is then +Inf, not a bound).
		phi := 0.0
		if in.GammaMax != 0 {
			phi = core.AdaptiveThreshold{GammaMin: in.GammaMin, G: rep.GObserved}.Value(delta)
		}
		row := DeltaRegret{Delta: delta, Threshold: phi}
		if !cfg.SkipReplays {
			fixed, err := core.OnlineAFA{Threshold: core.StaticThreshold{Phi: phi}}.Solve(p)
			if err != nil {
				return Report{}, fmt.Errorf("audit: fixed-threshold replay at δ=%g: %w", delta, err)
			}
			regret := math.Max(0, rep.OracleUtility-fixed.Utility)
			row.Utility, row.Regret = &fixed.Utility, &regret
		}
		rep.RegretByDelta = append(rep.RegretByDelta, row)
	}

	// Offer mix and per-campaign oracle spend/utility from the winning
	// offline assignment.
	oracleMix := make([]int, len(in.AdTypes))
	for _, ins := range best.Instances {
		oracleMix[ins.AdType]++
		ca := &audits[ins.Vendor]
		ca.OracleSpent += in.AdTypes[ins.AdType].Cost
		ca.OracleUtility += p.Utility(ins.Customer, ins.Vendor, ins.AdType)
		rep.OracleRevenue += in.Campaigns[ins.Vendor].Billing.ExpectedCost(in.AdTypes[ins.AdType].Cost)
	}
	switch {
	case rep.OracleRevenue > 0:
		rep.RevenueRatio = rep.OnlineRevenue / rep.OracleRevenue
	default:
		rep.RevenueRatio = 1
	}
	onlineTotal, oracleTotal := 0, 0
	for k := range in.AdTypes {
		onlineTotal += onlineMix[k]
		oracleTotal += oracleMix[k]
	}
	for k, t := range in.AdTypes {
		e := MixEntry{AdType: k, Name: t.Name, Online: onlineMix[k], Oracle: oracleMix[k]}
		if onlineTotal > 0 {
			e.OnlineShare = float64(onlineMix[k]) / float64(onlineTotal)
		}
		if oracleTotal > 0 {
			e.OracleShare = float64(oracleMix[k]) / float64(oracleTotal)
		}
		rep.MixDivergence += math.Abs(e.OnlineShare-e.OracleShare) / 2
		rep.OfferMix = append(rep.OfferMix, e)
	}

	// Pacing curves: each campaign's cumulative utilization sampled at the
	// arrival-sequence deciles. Decile d ends after the first (d+1)·n/10
	// arrivals; each charge lands in its arrival's decile bucket, and a
	// prefix sum turns the buckets into the cumulative curve.
	n := len(in.Arrivals)
	decileOf := func(ai int) int {
		for d := 0; d < 10; d++ {
			if ai < ((d+1)*n)/10 {
				return d
			}
		}
		return 9
	}
	for i := range audits {
		audits[i].PacingCurve = make([]float64, 10)
	}
	for _, m := range marks {
		audits[m.campaign].PacingCurve[decileOf(m.arrival)] += m.cost
	}
	for i := range audits {
		ca := &audits[i]
		if ca.Budget > 0 {
			ca.Utilization = ca.SpentTotal / ca.Budget
		}
		cum := ca.SpentBefore
		for d := range ca.PacingCurve {
			cum += ca.PacingCurve[d]
			if ca.Budget > 0 {
				ca.PacingCurve[d] = cum / ca.Budget
			} else {
				ca.PacingCurve[d] = 0
			}
		}
	}
	sort.Slice(audits, func(a, b int) bool { return audits[a].ID < audits[b].ID })
	rep.CampaignAudits = audits
	return rep, nil
}

// observedG reproduces the broker's g derivation: the configured value wins;
// otherwise the paper's tuning rule over the observed bounds.
func observedG(in Input) float64 {
	if in.G > 0 {
		return in.G
	}
	return core.TuneG(in.GammaMin, in.GammaMax)
}
