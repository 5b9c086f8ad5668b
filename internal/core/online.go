package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"muaa/internal/model"
	"muaa/internal/stats"
)

// Threshold is the admission-threshold policy of the online algorithm: given
// a vendor's used-budget ratio δ ∈ [0,1], it returns the minimum budget
// efficiency an ad instance must have to be pushed.
type Threshold interface {
	Value(delta float64) float64
}

// AdaptiveThreshold is the paper's φ(δ) = (γ_min/e)·g^δ (Corollary IV.1),
// yielding the (ln g + 1)/θ competitive ratio for g > e. At δ = 0 it admits
// anything with efficiency ≥ γ_min/e (below the global minimum, so
// everything); as the budget drains it demands exponentially more
// efficiency, reaching (γ_min/e)·g at exhaustion.
type AdaptiveThreshold struct {
	GammaMin float64
	G        float64
}

// Value implements Threshold.
func (a AdaptiveThreshold) Value(delta float64) float64 {
	return a.GammaMin / math.E * math.Pow(a.G, delta)
}

// StaticThreshold admits any instance with efficiency ≥ Phi regardless of
// remaining budget — the naive policy the paper argues against (Section
// IV-A); kept as the A1 ablation.
type StaticThreshold struct {
	Phi float64
}

// Value implements Threshold.
func (s StaticThreshold) Value(float64) float64 { return s.Phi }

// OnlineAFA is the paper's online adaptive factor-aware approach (Algorithm
// 2, "O-AFA"). Customers arrive one at a time (the order of the Customers
// slice); for each arrival the algorithm filters the vendors covering the
// customer, selects the best admissible ad type per vendor under the
// vendor's current threshold φ(δ_j), and keeps the top-a_i candidates by
// budget efficiency. With the adaptive threshold of Corollary IV.1 its
// competitive ratio is (ln g + 1)/θ, g > e.
type OnlineAFA struct {
	// GammaMin is the assumed lower bound on any instance's budget
	// efficiency. Zero means "estimate it from the instance" via
	// EstimateGammaMin (Section IV-C describes estimating it from
	// historical records; the estimator is this repository's stand-in).
	GammaMin float64
	// G is the threshold growth base g; must exceed e. Zero selects the
	// paper's tuning rule g = e·γ_max/γ_min (Section IV-B: "if we know the
	// upper bound γ_max, we should have φ(1) ≤ γ_max, which indicates
	// g ≤ γ_max·e/γ_min"), estimated from the same pair sample as γ_min and
	// clamped to [2e, 1e9].
	G float64
	// Threshold overrides the admission policy entirely (used by the
	// static-threshold ablation). When nil, the paper's AdaptiveThreshold is
	// built from GammaMin and G.
	Threshold Threshold
	// EstimateSample is the pair-sample size for γ_min estimation; zero
	// selects 512.
	EstimateSample int
	// Seed drives γ_min estimation sampling.
	Seed int64
}

// Name implements Solver.
func (o OnlineAFA) Name() string {
	if _, ok := o.Threshold.(StaticThreshold); ok {
		return "ONLINE-STATIC"
	}
	return "ONLINE"
}

// Solve implements Solver. It is a convenience that replays the Customers
// slice as the arrival stream through a Session.
func (o OnlineAFA) Solve(p *model.Problem) (model.Assignment, error) {
	s, err := NewSession(p, o)
	if err != nil {
		return model.Assignment{}, err
	}
	for ui := range p.Customers {
		s.Arrive(int32(ui))
	}
	return s.Finish()
}

// Session is the incremental interface to O-AFA for true streaming use: the
// caller announces arrivals one by one and may inspect per-vendor budget
// state between arrivals. A Session must not be shared across goroutines.
type Session struct {
	p         *model.Problem
	ix        *Index
	threshold Threshold
	spent     []float64
	arrived   map[int32]bool
	ins       []model.Instance
	buf       []int32
	cands     []candidate
}

// NewSession validates the configuration and prepares the spatial index and
// the admission threshold (estimating γ_min when not supplied).
func NewSession(p *model.Problem, o OnlineAFA) (*Session, error) {
	th := o.Threshold
	if th == nil {
		var err error
		th, err = buildAdaptiveThreshold(p, o.GammaMin, o.G, o.EstimateSample, o.Seed)
		if err != nil {
			return nil, err
		}
	}
	return &Session{
		p:         p,
		ix:        NewIndex(p),
		threshold: th,
		spent:     make([]float64, len(p.Vendors)),
		arrived:   make(map[int32]bool),
		ins:       nil,
	}, nil
}

// TuneG is the paper's tuning rule for the threshold base (Section IV-B):
// φ(1) ≤ γ_max ⇒ g ≤ e·γ_max/γ_min, clamped to [2e, 1e9], and 2e while the
// bounds are unknown or degenerate (γ_min ≤ 0 or γ_max ≤ γ_min). The one
// statement of the rule for the solver, the multi-day simulator and the
// audit; the broker kernel, which they are checked against, keeps its own.
func TuneG(gammaMin, gammaMax float64) float64 {
	g := 2 * math.E
	if gammaMin > 0 && gammaMax > gammaMin {
		g = math.E * gammaMax / gammaMin
		if g < 2*math.E {
			g = 2 * math.E
		}
		if g > 1e9 {
			g = 1e9
		}
	}
	return g
}

// buildAdaptiveThreshold assembles the paper's admission threshold from an
// explicit γ_min or a sampled estimate, applying the g tuning rule (TuneG)
// when g is unset. A degenerate instance (no positive-utility pair in the
// sample) yields γ_min = 0: the threshold admits everything, matching the
// paper's "assign as many as possible at the beginning" intuition.
func buildAdaptiveThreshold(p *model.Problem, gammaMin, g float64, sample int, seed int64) (Threshold, error) {
	if sample == 0 {
		sample = 512
	}
	gamma := gammaMin
	var gmax float64
	if gamma == 0 {
		gamma, gmax = EstimateGammaBounds(p, sample, seed)
	}
	if g == 0 {
		// When the caller supplied γ_min explicitly there is no γ_max sample
		// and TuneG falls back to 2e.
		g = TuneG(gamma, gmax)
	}
	if g <= math.E {
		return nil, fmt.Errorf("core: O-AFA requires g > e, got %g", g)
	}
	return AdaptiveThreshold{GammaMin: gamma, G: g}, nil
}

// Arrive processes customer ui's arrival (Algorithm 2) and returns the
// instances pushed to the customer. Each customer may arrive once; repeat
// arrivals return nil.
func (s *Session) Arrive(ui int32) []model.Instance {
	if s.arrived[ui] {
		return nil
	}
	s.arrived[ui] = true
	u := &s.p.Customers[ui]
	if u.Capacity == 0 {
		return nil
	}
	// Line 2: valid vendors.
	s.buf = s.ix.ValidVendors(s.buf[:0], ui)
	slices.Sort(s.buf)
	// Lines 3–6: best admissible ad type per vendor.
	s.cands = s.cands[:0]
	for _, vj := range s.buf {
		base := s.p.UtilityBase(ui, vj)
		if base <= 0 {
			continue
		}
		budget := s.p.Vendors[vj].Budget
		if budget <= 0 {
			continue
		}
		delta := s.spent[vj] / budget
		phi := s.threshold.Value(delta)
		remaining := budget - s.spent[vj]
		// "Best" ad type: the highest-utility type that passes the threshold
		// and fits the remaining budget — when budget is plentiful the
		// threshold is low and rich formats win; when drained only highly
		// efficient (cheap relative to utility) formats pass.
		bestK, bestU, bestEff := -1, 0.0, 0.0
		for k := range s.p.AdTypes {
			cost := s.p.AdTypes[k].Cost
			if cost > remaining+1e-12 {
				continue
			}
			util := base * s.p.AdTypes[k].Effect
			eff := util / cost
			if eff < phi {
				continue
			}
			if util > bestU {
				bestK, bestU, bestEff = k, util, eff
			}
		}
		if bestK >= 0 {
			s.cands = append(s.cands, candidate{customer: ui, vendor: vj, adType: bestK, utility: bestU, eff: bestEff})
		}
	}
	// Lines 7–8: keep the top-a_i by budget efficiency.
	if len(s.cands) > u.Capacity {
		sort.Slice(s.cands, func(a, b int) bool {
			if s.cands[a].eff != s.cands[b].eff {
				return s.cands[a].eff > s.cands[b].eff
			}
			return s.cands[a].vendor < s.cands[b].vendor
		})
		s.cands = s.cands[:u.Capacity]
	}
	var pushed []model.Instance
	for _, c := range s.cands {
		s.spent[c.vendor] += s.p.AdTypes[c.adType].Cost
		in := model.Instance{Customer: c.customer, Vendor: c.vendor, AdType: c.adType}
		s.ins = append(s.ins, in)
		pushed = append(pushed, in)
	}
	return pushed
}

// Spent returns vendor vj's committed budget so far.
func (s *Session) Spent(vj int32) float64 { return s.spent[vj] }

// Finish returns the accumulated assignment, validated.
func (s *Session) Finish() (model.Assignment, error) {
	return finish(s.p, append([]model.Instance(nil), s.ins...))
}

// EstimateGammaMin estimates the efficiency lower bound γ_min the adaptive
// threshold needs (Section IV-C): it samples up to sample random valid
// (customer, vendor) pairs, computes the budget efficiency of every ad type
// for each, and returns the smallest positive efficiency observed. Sampling
// keeps the estimator O(sample·q) — suitable for the online setting where
// γ_min would in practice come from yesterday's logs.
func EstimateGammaMin(p *model.Problem, sample int, seed int64) float64 {
	gmin, _ := EstimateGammaBounds(p, sample, seed)
	return gmin
}

// EstimateGammaBounds samples valid pairs and returns the smallest and
// largest positive budget efficiencies observed — the γ_min and γ_max of
// Section IV-B/IV-C. Both are 0 when no positive-utility pair is sampled.
func EstimateGammaBounds(p *model.Problem, sample int, seed int64) (gmin, gmax float64) {
	if len(p.Customers) == 0 || len(p.Vendors) == 0 {
		return 0, 0
	}
	ix := NewIndex(p)
	rng := stats.NewRand(seed)
	minEff, maxEff := math.Inf(1), 0.0
	var buf []int32
	for tries := 0; tries < sample; tries++ {
		ui := int32(rng.Intn(len(p.Customers)))
		buf = ix.ValidVendors(buf[:0], ui)
		if len(buf) == 0 {
			continue
		}
		vj := buf[rng.Intn(len(buf))]
		base := p.UtilityBase(ui, vj)
		if base <= 0 {
			continue
		}
		for k := range p.AdTypes {
			eff := base * p.AdTypes[k].Effect / p.AdTypes[k].Cost
			if eff <= 0 {
				continue
			}
			if eff < minEff {
				minEff = eff
			}
			if eff > maxEff {
				maxEff = eff
			}
		}
	}
	if math.IsInf(minEff, 1) {
		return 0, 0
	}
	return minEff, maxEff
}
