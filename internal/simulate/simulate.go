// Package simulate runs the multi-day broker simulation behind Section
// IV-C's tuning story: "we cannot know the value of γ_min in advance and
// need to estimate its value ... the value of g depends on the real
// situation of the problems, which can be estimated through the historical
// records, and we can gradually achieve a proper value of g for the real
// systems after a period of tuning."
//
// Each simulated day draws a fresh customer stream against the same vendor
// population (budgets reset daily, as ad campaigns do), and the online
// algorithm serves it with threshold parameters estimated from the
// efficiencies *observed on previous days* — a cold start on day one, a
// warmed-up γ window afterwards. The per-day utilities trace how the tuned
// threshold converges; the A7 experiment reports them.
//
// Daily traffic follows an intent ramp: viewing probabilities rise with the
// arrival hour (the evening crowd converts better than the morning one), so
// the stream is *not* exchangeable. On exchangeable traffic an admission
// threshold is pure insurance — blocking a borderline morning ad buys
// nothing when afternoon customers are drawn from the same distribution —
// and admit-everything is unbeatable in expectation; the ramp is the
// realistic structure that makes budget conservation pay within a day.
package simulate

import (
	"fmt"
	"sort"

	"muaa/internal/core"
	"muaa/internal/model"
	"muaa/internal/stats"
	"muaa/internal/workload"
)

// Config parameterizes a simulation.
type Config struct {
	// Days is the number of simulated days; zero selects 10.
	Days int
	// CustomersPerDay is the daily arrival count; zero selects 2,000.
	CustomersPerDay int
	// Vendors is the campaign population; zero selects 100.
	Vendors int
	// Budget, Radius, Capacity, ViewProb are the per-entity ranges (paper
	// Section V-A); zero values select a budget-scarce default where the
	// admission threshold visibly matters.
	Budget   stats.Range
	Radius   stats.Range
	Capacity stats.Range
	ViewProb stats.Range
	// Quantile is the robust-γ_min percentile: the threshold floor is set to
	// this quantile of observed efficiencies rather than the absolute
	// minimum, which a single freak observation would otherwise pin near
	// zero forever. Zero selects 0.05.
	Quantile float64
	Seed     int64
}

func (c Config) withDefaults() Config {
	if c.Days == 0 {
		c.Days = 10
	}
	if c.CustomersPerDay == 0 {
		c.CustomersPerDay = 2000
	}
	if c.Vendors == 0 {
		c.Vendors = 100
	}
	if !c.Budget.Valid() || c.Budget.Hi == 0 {
		c.Budget = stats.Range{Lo: 3, Hi: 6}
	}
	if !c.Radius.Valid() || c.Radius.Hi == 0 {
		// Wide reach: per-vendor demand must exceed the budget several-fold
		// for admission control to have anything to decide.
		c.Radius = stats.Range{Lo: 0.1, Hi: 0.15}
	}
	if !c.Capacity.Valid() || c.Capacity.Hi == 0 {
		c.Capacity = stats.Range{Lo: 1, Hi: 3}
	}
	if !c.ViewProb.Valid() || c.ViewProb.Hi == 0 {
		c.ViewProb = stats.Range{Lo: 0.1, Hi: 0.6}
	}
	if c.Quantile == 0 {
		c.Quantile = 0.05
	}
	return c
}

// Validate reports configuration errors (after default substitution).
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Days < 1 || c.CustomersPerDay < 1 || c.Vendors < 1 {
		return fmt.Errorf("simulate: days/customers/vendors must be positive (%d/%d/%d)",
			c.Days, c.CustomersPerDay, c.Vendors)
	}
	if c.Quantile < 0 || c.Quantile >= 1 {
		return fmt.Errorf("simulate: quantile %g outside [0, 1)", c.Quantile)
	}
	return nil
}

// DayResult is one day of the simulation.
type DayResult struct {
	Day     int
	Utility float64
	Ads     int
	// GammaMin and G are the threshold parameters the day ran with (zero
	// γ_min on the cold-start day: admit everything).
	GammaMin float64
	G        float64
	// OfflineUtility is GREEDY's hindsight utility on the same day — the
	// yardstick the tuned online policy converges toward.
	OfflineUtility float64
}

// Run executes the simulation and returns one result per day.
func Run(cfg Config) ([]DayResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	// The vendor population is fixed across days (locations, radii,
	// budgets); customer streams are fresh daily.
	base, err := workload.Synthetic(workload.Config{
		Customers: 1,
		Vendors:   cfg.Vendors,
		Budget:    cfg.Budget,
		Radius:    cfg.Radius,
		Capacity:  cfg.Capacity,
		ViewProb:  cfg.ViewProb,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	vendors := base.Vendors

	// The tuning memory: efficiencies observed on previous days.
	history := newEffHistory(cfg.Quantile)
	var results []DayResult
	for day := 0; day < cfg.Days; day++ {
		dayProblem, err := workload.Synthetic(workload.Config{
			Customers: cfg.CustomersPerDay,
			Vendors:   cfg.Vendors,
			Budget:    cfg.Budget, // regenerated below; only customers matter
			Radius:    cfg.Radius,
			Capacity:  cfg.Capacity,
			ViewProb:  cfg.ViewProb,
			Seed:      cfg.Seed + int64(day+1),
		})
		if err != nil {
			return nil, err
		}
		dayProblem.Vendors = append([]model.Vendor(nil), vendors...) // budgets reset daily
		applyIntentRamp(dayProblem, cfg.ViewProb)

		gammaMin, gammaMax := history.bounds()
		g := core.TuneG(gammaMin, gammaMax)
		var threshold core.Threshold = core.AdaptiveThreshold{GammaMin: gammaMin, G: g}
		if gammaMin == 0 {
			// Cold start: no history → admit everything (paper's "assign as
			// many as possible at the beginning").
			threshold = core.StaticThreshold{Phi: 0}
		}
		online, err := core.OnlineAFA{Threshold: threshold, Seed: cfg.Seed}.Solve(dayProblem)
		if err != nil {
			return nil, err
		}
		offline, err := core.Greedy{}.Solve(dayProblem)
		if err != nil {
			return nil, err
		}
		// Record today's observed efficiencies for tomorrow's tuning: every
		// valid pair's ad-type efficiencies, sampled.
		history.observeProblem(dayProblem, 2048, cfg.Seed+int64(day))

		results = append(results, DayResult{
			Day:            day,
			Utility:        online.Utility,
			Ads:            len(online.Instances),
			GammaMin:       gammaMin,
			G:              g,
			OfflineUtility: offline.Utility,
		})
	}
	return results, nil
}

// applyIntentRamp rescales viewing probabilities so intent rises linearly
// over the day within the configured range: a customer arriving at hour φ
// gets p = lo + (hi−lo)·(φ/24), blended evenly with their generated
// probability to keep individual variation.
func applyIntentRamp(p *model.Problem, viewProb stats.Range) {
	for i := range p.Customers {
		u := &p.Customers[i]
		ramp := viewProb.Lo + viewProb.Width()*u.Arrival/24
		u.ViewProb = (u.ViewProb + ramp) / 2
		if u.ViewProb > 1 {
			u.ViewProb = 1
		}
	}
}

// effHistory accumulates observed efficiencies across days and reports a
// robust (quantile, max) bound pair.
type effHistory struct {
	quantile float64
	samples  []float64
}

func newEffHistory(quantile float64) *effHistory {
	return &effHistory{quantile: quantile}
}

func (h *effHistory) observeProblem(p *model.Problem, sample int, seed int64) {
	ix := core.NewIndex(p)
	rng := stats.NewRand(seed)
	var buf []int32
	for tries := 0; tries < sample; tries++ {
		if len(p.Customers) == 0 {
			return
		}
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
			if eff := base * p.AdTypes[k].Effect / p.AdTypes[k].Cost; eff > 0 {
				h.samples = append(h.samples, eff)
			}
		}
	}
}

// bounds returns (quantile of samples, max of samples); zeros before any
// observation.
func (h *effHistory) bounds() (gmin, gmax float64) {
	if len(h.samples) == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), h.samples...)
	sort.Float64s(sorted)
	idx := int(h.quantile * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx], sorted[len(sorted)-1]
}
