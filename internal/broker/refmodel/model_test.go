// Package refmodel states the broker's contract once, as an executable
// reference model written from DESIGN.md §§15/17 and docs/API.md, not from
// the kernel: plain maps and slices, an O(n) range scan, the generic Eq. 5
// scorer and the slot rule as a sort. It is test files only, so it sees
// nothing of package broker but the exported API.
package refmodel

import (
	"cmp"
	"errors"
	"maps"
	"math"
	"slices"

	"muaa/internal/broker"
	"muaa/internal/model"
	"muaa/internal/pacing"
)

// maxOpen bounds the escrow table and the idempotency-key window.
const maxOpen = 65536

// errInvalid stands for every validation error: the contract fixes only
// that such a request fails.
var errInvalid = errors.New("refmodel: invalid")

// refModel is the broker as plain data; its methods mirror the broker's, run
// serially.
type refModel struct {
	cfg        broker.Config
	cs         []broker.Campaign
	allowance  []float64 // controller spend ceiling per campaign, +Inf when uncapped
	st         broker.Stats
	gmin, gmax float64 // bounds of every observed efficiency; +Inf and 0 before the first
	billed     bool    // a campaign with a non-fixed contract was registered

	open      map[uint64]broker.Conversion // escrowed offers by id, as converting one pays
	nextID    uint64                       // the next offer id; ids start at 1
	evictNext uint64                       // no open id lies below it
	keys      map[string]bool              // consumed idempotency keys, oldest first in keyQ
	keyQ      []string
}

// newRefModel returns the model of a fresh broker built with cfg.
func newRefModel(cfg broker.Config) *refModel {
	return &refModel{cfg: cfg, st: broker.Stats{PhiBoost: 1}, gmin: math.Inf(1),
		open: map[uint64]broker.Conversion{}, nextID: 1, keys: map[string]bool{}}
}

func (m *refModel) clone() *refModel {
	c := *m
	c.cs, c.allowance, c.keyQ = slices.Clone(m.cs), slices.Clone(m.allowance), slices.Clone(m.keyQ)
	c.open, c.keys = maps.Clone(m.open), maps.Clone(m.keys)
	return &c
}

// Stats is GET /v1/stats; G is configured, else e·γ_max/γ_min once two
// distinct efficiencies were seen.
func (m *refModel) Stats() broker.Stats {
	s := m.st
	s.Campaigns = len(m.cs)
	if m.gmax > 0 {
		s.GammaMin, s.GammaMax = m.gmin, m.gmax
	}
	if s.G = m.cfg.G; s.G == 0 && m.gmax > m.gmin {
		s.G = math.E * m.gmax / m.gmin
	}
	return s
}

// Campaigns is every campaign's state in id order.
func (m *refModel) Campaigns() []broker.Campaign { return append([]broker.Campaign{}, m.cs...) }

func finite(v ...float64) bool {
	return !slices.ContainsFunc(v, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) })
}

// RegisterCampaignSpec is POST /v1/campaigns.
func (m *refModel) RegisterCampaignSpec(s broker.CampaignSpec) (int32, error) {
	if !finite(s.Loc.X, s.Loc.Y, s.Radius, s.Budget) || !finite(s.Tags...) || s.Radius < 0 || s.Budget < 0 ||
		!(s.Floor >= 0 && s.Floor <= 1) || !(s.Penalty >= 0) || !s.Guaranteed && (s.Floor != 0 || s.Penalty != 0) ||
		s.Billing.Validate() != nil {
		return 0, errInvalid
	}
	id := int32(len(m.cs))
	m.cs = append(m.cs, broker.Campaign{ID: id, Loc: s.Loc, Radius: s.Radius, Budget: s.Budget,
		Tags: append([]float64(nil), s.Tags...), Guaranteed: s.Guaranteed, Floor: s.Floor, Penalty: s.Penalty,
		Rate: 1, Billing: s.Billing})
	m.allowance = append(m.allowance, math.Inf(1))
	m.billed = m.billed || !s.Billing.Zero()
	return id, nil
}

// TopUp is POST /v1/campaigns/{id}/topup: the budget it leaves stays finite.
func (m *refModel) TopUp(id int32, amount float64) error {
	if id < 0 || int(id) >= len(m.cs) || amount < 0 || !finite(amount, m.cs[id].Budget+amount) {
		return errInvalid
	}
	m.cs[id].Budget += amount
	return nil
}

// SetPaused is POST /v1/campaigns/{id}/pause.
func (m *refModel) SetPaused(id int32, paused bool) error {
	if id < 0 || int(id) >= len(m.cs) {
		return errInvalid
	}
	m.cs[id].Paused = paused
	return nil
}

// Arrive is POST /v1/arrivals.
func (m *refModel) Arrive(a broker.Arrival) ([]broker.Offer, error) {
	r := m.ArriveBatch([]broker.Arrival{a})[0]
	return r.Offers, r.Err
}

// ArriveBatch is POST /v1/arrivals:batch: each arrival in order, exactly as
// if submitted alone. An invalid one fails alone and changes nothing; a
// valid one is counted, and served when its capacity is positive.
func (m *refModel) ArriveBatch(batch []broker.Arrival) []broker.BatchResult {
	out := make([]broker.BatchResult, len(batch))
	for i, a := range batch {
		if a.Capacity < 0 || a.Capacity > math.MaxInt32 || !(a.ViewProb >= 0 && a.ViewProb <= 1) ||
			!(a.Hour >= 0 && a.Hour <= 24) || !finite(a.Loc.X, a.Loc.Y) || !finite(a.Interests...) {
			out[i].Err = errInvalid
		} else if m.st.Arrivals++; a.Capacity > 0 {
			out[i].Offers = m.resolve(m.candidates(a), a.Capacity)
		}
	}
	return out
}

// item is one admitted (campaign, ad type) choice; rep an admitted
// candidate, the item it serves and the efficiency it ranks by.
type item struct {
	k                   int
	util, eff, bid, exp float64
}

type rep struct {
	id      int32
	billing model.Billing
	items   []item
	serve   item
	rank    float64
}

// candidates walks the campaigns covering a in id order, feeding γ with
// every efficiency it prices, and returns those with an admitted item.
func (m *refModel) candidates(a broker.Arrival) []rep {
	var reps []rep
	for id := range m.cs {
		c := &m.cs[id]
		if a.Loc.Dist2(c.Loc) > c.Radius*c.Radius || c.Paused || c.Budget <= 0 || len(c.Tags) != len(a.Interests) {
			continue
		}
		s := model.PearsonPreference{}.Score(&model.Customer{Interests: a.Interests}, &model.Vendor{Tags: c.Tags}, a.Hour)
		if !(s > 0) {
			continue
		}
		base := a.ViewProb * min(s, 1) / max(a.Loc.Dist(c.Loc), model.DefaultMinDist)
		// What an offer may draw on: budget neither spent nor escrowed, under
		// the pacing cap and the controller's ceiling (a NaN cap caps nothing).
		remaining := c.Budget - c.Spent - c.Escrow
		if p := m.cfg.Pacing*c.Budget*a.Hour/24 - c.Spent; m.cfg.Pacing > 0 && p < remaining {
			remaining = p
		}
		if p := m.allowance[id] - c.Spent; m.cfg.Controller != nil && p < remaining {
			remaining = p
		}
		// φ(δ) = γ_min/e · g^δ, 0 before any observation, with g configured or
		// e·γ_max/γ_min clamped to [2e, 1e9]; × the controller's boost, × ¼
		// for a guaranteed campaign behind its floor.
		phi := 0.0
		if m.gmax > 0 {
			g := m.cfg.G
			if g == 0 {
				g = min(max(math.E*m.gmax/m.gmin, 2*math.E), 1e9)
			}
			phi = m.gmin / math.E * math.Pow(g, c.Spent/c.Budget)
		}
		if phi *= m.st.PhiBoost; c.Guaranteed && c.Floor > 0 && c.Spent < c.Floor*c.Budget*(a.Hour/24) {
			phi *= 0.25
		}
		r := rep{id: int32(id), billing: c.Billing}
		for k, t := range m.cfg.AdTypes {
			bid := c.Billing.BidECPM(t.Cost)
			if t.Cost > remaining+1e-12 || bid < c.Billing.ReserveECPM {
				continue
			}
			it := item{k: k, util: base * t.Effect, bid: bid, exp: c.Billing.ExpectedCost(t.Cost)}
			if it.eff = it.util / it.exp; it.eff > 0 && finite(it.eff) {
				m.gmin, m.gmax = min(m.gmin, it.eff), max(m.gmax, it.eff)
			}
			if !(it.eff < phi || it.util <= 0) {
				r.items = append(r.items, it)
			}
		}
		if len(r.items) > 0 {
			reps = append(reps, r)
		}
	}
	return reps
}

// resolve is the slot race of DESIGN.md §15 — serve, rank, take the top
// capacity (in scan order when all fit and no auction runs), price every
// winner by the runner-up's bid — then commits the winners in offer order.
func (m *refModel) resolve(reps []rep, capacity int) []broker.Offer {
	slots := (m.cfg.Slate || m.billed) && capacity > 1
	for i := range reps {
		r := &reps[i]
		r.serve, r.rank = r.items[0], r.items[0].eff
		for _, it := range r.items[1:] {
			if it.util > r.serve.util || slots && it.util == r.serve.util && it.exp < r.serve.exp {
				r.serve = it
			}
			r.rank = max(r.rank, it.eff)
		}
		if !slots {
			r.rank = r.serve.eff
		}
	}
	if slots || len(reps) > capacity {
		slices.SortFunc(reps, func(x, y rep) int { return cmp.Or(cmp.Compare(y.rank, x.rank), cmp.Compare(x.id, y.id)) })
	}
	runner := 0.0
	if len(reps) > capacity {
		runner, reps = reps[capacity].serve.bid, reps[:capacity]
	}
	var offers []broker.Offer
	for _, r := range reps {
		bi, it := r.billing, r.serve
		o := broker.Offer{Campaign: r.id, AdType: it.k, Utility: it.util, Efficiency: it.eff}
		// Catalog cost, or second price with reserve, capped at the bid.
		if bi.Model == model.BillingFixed {
			o.Cost = m.cfg.AdTypes[it.k].Cost
		} else if o.ChargeECPM, o.Model = min(it.bid, max(bi.ReserveECPM, runner)), bi.Model; bi.Model.Deferred() {
			o.Hold = o.ChargeECPM / 1000 / bi.EventRate
		} else {
			o.Cost = o.ChargeECPM / 1000
		}
		offers = append(offers, m.commit(o))
	}
	return offers
}

// commit lands one offer's money. A hold takes the next offer id into
// escrow; past maxOpen open holds the oldest is released to its campaign.
func (m *refModel) commit(o broker.Offer) broker.Offer {
	c := &m.cs[o.Campaign]
	if o.Hold > 0 {
		o.ID = m.nextID
		m.nextID++
		m.open[o.ID] = broker.Conversion{OfferID: o.ID, Campaign: o.Campaign, Model: o.Model, Charged: o.Hold}
		c.Escrow += o.Hold
		m.st.EscrowHeld += o.Hold
		for ; len(m.open) > maxOpen; m.evictNext++ {
			if h, ok := m.open[m.evictNext]; ok {
				delete(m.open, m.evictNext)
				m.cs[h.Campaign].Escrow -= h.Charged
				m.st.EscrowHeld -= h.Charged
				m.st.EscrowReleased += h.Charged
			}
		}
	}
	c.Spent += o.Cost
	m.st.BudgetSpent += o.Cost
	m.st.UtilityServed += o.Utility
	m.st.OffersPushed++
	return o
}

// Convert is POST /v1/events: an open offer's hold moves from escrow to
// spend, once per offer and once per non-empty idempotency key.
func (m *refModel) Convert(id uint64, key string) (broker.Conversion, error) {
	if key != "" && m.keys[key] {
		return broker.Conversion{}, broker.ErrDuplicateEvent
	}
	h, ok := m.open[id]
	if !ok {
		return broker.Conversion{}, broker.ErrOfferUnknown
	}
	delete(m.open, id)
	if key != "" {
		if m.keys[key], m.keyQ = true, append(m.keyQ, key); len(m.keyQ) > maxOpen {
			delete(m.keys, m.keyQ[0])
			m.keyQ = m.keyQ[1:]
		}
	}
	c := &m.cs[h.Campaign]
	c.Escrow -= h.Charged
	c.Spent += h.Charged
	c.Converted += h.Charged
	c.Conversions++
	m.st.EscrowHeld -= h.Charged
	m.st.BudgetSpent += h.Charged
	m.st.ConversionRevenue += h.Charged
	m.st.Conversions++
	return h, nil
}

// PacingStep is a controller epoch with no audit report yet; each rate
// becomes a spend ceiling through pacing.Allowance.
func (m *refModel) PacingStep() (pacing.Decision, error) {
	if m.cfg.Controller == nil {
		return pacing.Decision{}, broker.ErrControllerDisabled
	}
	snap := pacing.Snapshot{Boost: m.st.PhiBoost, Campaigns: []pacing.CampaignView{}}
	for _, c := range m.cs {
		snap.Campaigns = append(snap.Campaigns, pacing.CampaignView{ID: c.ID, Budget: c.Budget, Spent: c.Spent,
			Rate: c.Rate, Guaranteed: c.Guaranteed, Floor: c.Floor, Paused: c.Paused})
	}
	dec := pacing.Decide(*m.cfg.Controller, snap)
	m.st.PhiBoost = dec.Boost
	m.st.PacingEpoch++
	for _, r := range dec.Rates {
		c := &m.cs[r.ID]
		c.Rate = r.Rate
		m.allowance[r.ID] = pacing.Allowance(c.Budget, c.Spent, m.allowance[r.ID], r.Rate)
	}
	return dec, nil
}
