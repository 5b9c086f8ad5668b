package broker

// Explain-replay: "why did (or didn't) this arrival get these offers?"
//
// Explain runs the decision kernel itself (kernel.go) — the same gather, the
// same terms, walk and resolver an immediately-following Arrive would run —
// over a hypothetical arrival, under the covering stripe locks, and renders
// the per-candidate breakdown from what the kernel recorded instead of
// committing anything. It is read-only by construction: the kernel's decide
// stage writes nothing outside the arena it is handed but the threshold memo
// (a cache of g^δ that no result depends on), and Explain hands it
// a private arena whose γ-state is seeded from the live bounds and then
// thrown away — never merged back — so the predicted thresholds are exactly
// what the real arrival would compute while the live bounds stay untouched.
// No spend, no WAL record, no arrivals counter, no funnel fold, no metrics.
// Pinned by the golden replay transcripts with explain calls interleaved
// (TestReplayMatchesGoldenExplainInterleaved).
//
// Explain allocates freely: it is a debug endpoint, not the hot path, and
// borrowing a stripe arena would couple its high-water marks to diagnostic
// traffic.

import (
	"net/http"
	"slices"

	"muaa/internal/model"
	"muaa/internal/obs"
)

// ExplainReport is the full decision breakdown for one hypothetical arrival.
type ExplainReport struct {
	// Slate reports whether the arrival was auction-resolved (billing active
	// or Config.Slate): reserve gates and second-price charges apply, and at
	// capacity ≥ 2 the slot race runs under its slate rules.
	Slate bool `json:"slate"`
	// Boost is the pacing controller's threshold multiplier the scan applied
	// (1 without a controller).
	Boost float64 `json:"boost"`
	// GammaMin/GammaMax are the live γ bounds at entry (zeros before the
	// first observation, as Stats reports them) and G the threshold base the
	// walk used at entry — configured, or derived from the bounds and clamped
	// to [2e, 1e9] — so gamma_min/e · g^delta · boost (· 0.25 under relief)
	// reproduces the first walked candidate's threshold. Unlike Stats.G, which
	// is reporting-only and unclamped.
	GammaMin float64 `json:"gamma_min"`
	GammaMax float64 `json:"gamma_max"`
	G        float64 `json:"g"`
	// StripeLo/StripeHi are the stripe interval the arrival would lock.
	StripeLo int `json:"stripe_lo"`
	StripeHi int `json:"stripe_hi"`
	// Gathered is the candidate count the grid probes returned; Offered how
	// many offers the arrival would receive.
	Gathered int `json:"gathered"`
	Offered  int `json:"offered"`
	// Candidates carries one entry per gathered candidate, by ascending
	// campaign id. The walk visits them in scan order (by grid cell row, cell,
	// then id), which is the order γ feeds forward in.
	Candidates []ExplainCandidate `json:"candidates"`
}

// ExplainCandidate is the decision breakdown for one gathered campaign.
type ExplainCandidate struct {
	Campaign int32 `json:"campaign"`
	// Disposition is the funnel bucket the candidate would land in (see
	// dispositionNames): offered, paused, exhausted, tag_mismatch, low_score,
	// unaffordable, below_threshold, below_reserve, displaced_by_slate.
	Disposition string `json:"disposition"`

	// Scoring terms, present once the candidate passes the cheap filters.
	Distance float64 `json:"distance,omitempty"`
	Score    float64 `json:"score,omitempty"`
	Delta    float64 `json:"delta,omitempty"`
	// Relief marks a guaranteed campaign behind its pro-rated floor (its
	// threshold was scaled by the relief factor).
	Relief bool `json:"relief,omitempty"`
	// Threshold is φ(δ) as this candidate saw it: pacing boost and guarantee
	// relief applied, γ feed-forward from every earlier candidate included.
	Threshold float64 `json:"threshold"`
	// Base is the Eq. 4 per-effect value (viewProb × score / distance).
	Base float64 `json:"base,omitempty"`
	// Remaining is the spendable budget after escrow and pacing caps; Headroom
	// the raw unspent, unescrowed budget; Escrow the budget held against open
	// offers (nonzero only for campaigns billed per event).
	Remaining float64 `json:"remaining,omitempty"`
	Headroom  float64 `json:"headroom,omitempty"`
	Escrow    float64 `json:"escrow,omitempty"`

	// Bids is the per-ad-type breakdown of the threshold walk.
	Bids []ExplainBid `json:"bids,omitempty"`
	// Offer is the offer this candidate would win, when Disposition is
	// "offered". No offer ID is assigned — nothing is committed.
	Offer *ExplainOffer `json:"offer,omitempty"`
}

// ExplainBid is one (candidate, ad-type) evaluation in the threshold walk.
type ExplainBid struct {
	AdType int     `json:"ad_type"`
	Name   string  `json:"name"`
	Cost   float64 `json:"cost"`
	// Affordable: the catalog cost fits the spendable budget.
	Affordable bool `json:"affordable"`
	// BidECPM and AboveReserve appear on auction-resolved arrivals only: the
	// campaign's eCPM-normalized bid and whether it cleared its own reserve.
	BidECPM      float64 `json:"bid_ecpm,omitempty"`
	AboveReserve bool    `json:"above_reserve,omitempty"`
	// Utility and Efficiency are the admission currency (efficiency divides
	// by the billing-expected cost).
	Utility    float64 `json:"utility,omitempty"`
	Efficiency float64 `json:"efficiency,omitempty"`
	// Admitted: efficiency met the threshold. Chosen: the ad type the
	// candidate serves if it holds a slot (DESIGN.md §15's serve rule).
	Admitted bool `json:"admitted,omitempty"`
	Chosen   bool `json:"chosen,omitempty"`
}

// ExplainOffer is the offer a winning candidate would receive.
type ExplainOffer struct {
	AdType     int     `json:"ad_type"`
	Name       string  `json:"name"`
	Utility    float64 `json:"utility"`
	Efficiency float64 `json:"efficiency"`
	// Cost is the immediate charge (catalog cost, or the second-priced CPM
	// charge); ChargeECPM/Hold/Model mirror the committed Offer's auction
	// fields for billed campaigns.
	Cost       float64 `json:"cost"`
	ChargeECPM float64 `json:"charge_ecpm,omitempty"`
	Hold       float64 `json:"hold,omitempty"`
	Model      string  `json:"model,omitempty"`
	// Slot is the 0-based position in the committed offer list.
	Slot int `json:"slot"`
}

// explainLog is the detail the kernel keeps for Explain beyond the funnel's
// disposition events (scanArena.why; nil on the serving path): terms and phi
// are index-aligned with ar.cand, bids holds len(AdTypes) rows per ar.cand
// entry in walk order.
type explainLog struct {
	lowScore map[int32]float64 // campaign → the non-positive score that dropped it
	terms    []explainTerms
	phi      []float64
	bids     []ExplainBid
}

// explainTerms is what terms computes per survivor but the walk never reads.
type explainTerms struct{ dist, score float64 }

// bidGate is how far one (candidate, ad type) evaluation got in the walk;
// ordered, so "reached at least" is a comparison.
type bidGate uint8

const (
	bidUnaffordable bidGate = iota
	bidBelowReserve
	bidBelowThreshold
	bidAdmitted
)

// bid records one walk evaluation.
func (w *explainLog) bid(k int, t model.AdType, gate bidGate, bid, util, eff float64) {
	w.bids = append(w.bids, ExplainBid{
		AdType: k, Name: t.Name, Cost: t.Cost,
		Affordable:   gate >= bidBelowReserve,
		BidECPM:      bid,
		AboveReserve: gate >= bidBelowThreshold,
		Utility:      util, Efficiency: eff,
		Admitted: gate == bidAdmitted,
	})
}

// Explain runs the decision kernel read-only over a hypothetical arrival
// and returns the per-candidate breakdown. Validation matches Arrive;
// capacity 0 returns an empty report (Arrive would only count the arrival).
func (b *Broker) Explain(a Arrival) (*ExplainReport, error) {
	if err := validateArrival(&a); err != nil {
		return nil, err
	}
	rep := &ExplainReport{Boost: 1, Candidates: []ExplainCandidate{}}
	if a.Capacity == 0 {
		return rep, nil
	}

	// Lock the same covering stripe interval an arrival would, so explain
	// serializes against live traffic exactly like a real arrival — the
	// breakdown is a consistent snapshot. No metrics: explain is not traffic.
	maxR := b.maxRadius.Load()
	s0, s1 := b.stripes.Range(a.Loc.Y-maxR, a.Loc.Y+maxR)
	b.lockStripes(s0, s1, nil)
	defer b.unlockStripes(s0, s1)

	auction := b.cfg.Slate || b.billing.active.Load()
	why := &explainLog{lowScore: map[int32]float64{}}
	ar := &scanArena{rec: true, why: why}
	fl := b.gather(ar, a.Loc, s0, s1)
	b.gammaSeed(&ar.gamma)
	entry := ar.gamma
	b.decide(ar, &a, fl, auction)

	rep.Slate = auction
	rep.Boost = b.boost()
	rep.StripeLo, rep.StripeHi = s0, s1
	if entry.max != 0 {
		// Report the entry bounds the way Stats does (zeros until seen).
		rep.GammaMin, rep.GammaMax = entry.min, entry.max
	}
	rep.G = entry.base()
	rep.Gathered = len(ar.ids)
	rep.Offered = len(ar.cands)

	// Render: candidates are listed by ascending campaign id (the walk met
	// them in scan order), so everything the kernel recorded joins by binary
	// search.
	ids := slices.Clone(ar.ids)
	slices.Sort(ids)
	rep.Candidates = make([]ExplainCandidate, len(ids))
	for i, id := range ids {
		rep.Candidates[i].Campaign = id
	}
	at := func(id int32) *ExplainCandidate {
		i, _ := slices.BinarySearch(ids, id)
		return &rep.Candidates[i]
	}
	for _, ev := range ar.fev {
		at(ar.ids[ev.at]).Disposition = dispositionNames[ev.disp]
	}
	for id, s := range why.lowScore {
		at(id).Score = s
	}
	nTypes := len(b.cfg.AdTypes)
	for i, k := range ar.cand {
		id := ar.ids[k]
		ec := at(id)
		ec.Distance, ec.Score = why.terms[i].dist, why.terms[i].score
		ec.Delta, ec.Relief, ec.Threshold = ar.delta[i], ar.relief[i], why.phi[i]
		ec.Base, ec.Remaining, ec.Headroom = ar.base[i], ar.remaining[i], ar.headroom[i]
		ec.Escrow = fl.hotAt(ar.rows[k].row).escrow.Load()
		ec.Bids = why.bids[i*nTypes : (i+1)*nTypes : (i+1)*nTypes]
		if !auction {
			for k := range ec.Bids {
				ec.Bids[k].BidECPM, ec.Bids[k].AboveReserve = 0, false
			}
		}
	}
	for i := range ar.reps {
		r := &ar.reps[i]
		at(r.id).Bids[r.k].Chosen = true
	}
	for slot := range ar.cands {
		cd := &ar.cands[slot]
		at(cd.Campaign).Offer = explainOfferFrom(cd, b.cfg.AdTypes, slot)
	}
	return rep, nil
}

// explainOfferFrom converts a priced winner to the report view.
func explainOfferFrom(cd *candidate, adTypes []model.AdType, slot int) *ExplainOffer {
	out := &ExplainOffer{
		AdType: cd.AdType, Name: adTypes[cd.AdType].Name,
		Utility: cd.Utility, Efficiency: cd.Efficiency,
		Cost: cd.Cost, ChargeECPM: cd.ChargeECPM, Hold: cd.Hold, Slot: slot,
	}
	if cd.Model != model.BillingFixed {
		out.Model = cd.Model.String()
	}
	return out
}

// ServeExplain serves POST /v1/debug/explain: a hypothetical arrival in the
// /v1/arrivals request schema, the ExplainReport out. Decoding is
// /v1/arrivals' own (1 MiB cap, strict fields, content-type contract).
func (b *Broker) ServeExplain(w http.ResponseWriter, r *http.Request) {
	buf := wirePool.Get().(*wireBuf)
	defer wirePool.Put(buf)
	if !readBody(w, r, buf) || !decodeArrival(w, buf) {
		return
	}
	rep, err := b.Explain(buf.arrivals[0])
	if err != nil {
		writeErr(w, err)
		return
	}
	obs.WriteJSON(w, http.StatusOK, rep)
}

// ServeCampaignFunnel serves GET /v1/debug/campaigns/{id}/funnel: the
// campaign's decision-funnel counters. 404 funnel_disabled without
// Config.Funnel.Enabled, 404 not_found for unknown campaigns.
func (b *Broker) ServeCampaignFunnel(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	fc, err := b.CampaignFunnel(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	obs.WriteJSON(w, http.StatusOK, fc)
}
