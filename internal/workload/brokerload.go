// Broker load generation: deterministic mixed-operation traffic for the
// long-lived broker in internal/broker. The generator is intentionally
// broker-agnostic — it emits plain op records (arrival / top-up / pause /
// stats-read) that the caller maps onto broker method calls — so the broker's
// own in-package tests can consume it without an import cycle.
//
// The same op stream serves three consumers: the determinism golden test
// (single-threaded replay must be byte-identical across broker
// implementations), the concurrent soak test (the stream is split across
// goroutines), and the parallel throughput benchmarks in bench_test.go and
// cmd/muaa-bench.
package workload

import (
	"fmt"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/stats"
)

// BrokerOpKind discriminates the operations in a broker load stream.
type BrokerOpKind int

const (
	// OpArrival is a customer arrival (the hot path).
	OpArrival BrokerOpKind = iota
	// OpTopUp adds budget to an existing campaign.
	OpTopUp
	// OpPause toggles a campaign's paused flag.
	OpPause
	// OpStats is a counters/campaign-list snapshot read.
	OpStats
	// OpConvert is a CPC/CPA conversion event against an open escrowed
	// offer. The generator cannot know offer IDs, so the op carries Pick —
	// the consumer maps it onto its current open-offer set, e.g.
	// ids[Pick % len(ids)] — and tolerates misses (already-converted or
	// evicted offers are part of the contract).
	OpConvert
)

// String names the op kind for logs and golden files.
func (k BrokerOpKind) String() string {
	switch k {
	case OpArrival:
		return "arrival"
	case OpTopUp:
		return "topup"
	case OpPause:
		return "pause"
	case OpStats:
		return "stats"
	case OpConvert:
		return "convert"
	}
	return fmt.Sprintf("BrokerOpKind(%d)", int(k))
}

// BrokerCampaign is the registration record for one campaign in a load.
type BrokerCampaign struct {
	Loc    geo.Point
	Radius float64
	Budget float64
	Tags   []float64
	// Billing is the campaign's billing contract; the zero value keeps the
	// seed fixed-cost behavior.
	Billing model.Billing
}

// BrokerOp is one operation in a broker load stream. Which fields are
// meaningful depends on Kind: arrivals use Loc/Capacity/ViewProb/Interests/
// Hour, top-ups use Campaign/Amount, pauses use Campaign/Paused, stats reads
// use nothing.
type BrokerOp struct {
	Kind      BrokerOpKind
	Campaign  int32
	Amount    float64
	Paused    bool
	Loc       geo.Point
	Capacity  int
	ViewProb  float64
	Interests []float64
	Hour      float64
	// Pick selects which open offer an OpConvert targets; see OpConvert.
	Pick uint64
}

// BrokerLoadConfig parameterizes BrokerLoad. The zero value is not usable;
// set Campaigns and Ops. Fractions that do not sum to 1 leave the remainder
// to stats reads; DefaultBrokerLoadConfig gives the standard 90/4/2/4 mix.
type BrokerLoadConfig struct {
	// Campaigns is the number of campaign registrations emitted up front.
	Campaigns int
	// Ops is the length of the mixed operation stream.
	Ops int
	// ArrivalFrac, TopUpFrac, PauseFrac weight the op mix; the remaining
	// fraction becomes stats reads. All must be in [0,1] with sum ≤ 1.
	ArrivalFrac float64
	TopUpFrac   float64
	PauseFrac   float64
	// Radius, Budget, Capacity, ViewProb are the per-entity ranges, realized
	// by truncated Gaussians exactly as the Synthetic generator does.
	Radius   stats.Range
	Budget   stats.Range
	Capacity stats.Range
	ViewProb stats.Range
	// NumTags is the tag/interest dimensionality; zero selects 8.
	NumTags int
	// Seed makes the stream deterministic.
	Seed int64

	// CPMFrac and CPCFrac put that fraction of the registered campaigns on
	// cpm / cpc auction billing (the remainder stays fixed-cost). Both zero
	// keeps the generated stream byte-identical to pre-billing loads: no
	// extra rng draws happen.
	CPMFrac float64
	CPCFrac float64
	// ReserveECPM and EventRate are the billing parameter ranges realized
	// per billed campaign (EventRate only for deferred models). Required
	// when the corresponding fraction is non-zero.
	ReserveECPM stats.Range
	EventRate   stats.Range
	// ConvertFrac weights conversion events (OpConvert) in the op mix,
	// alongside ArrivalFrac/TopUpFrac/PauseFrac; the remainder is still
	// stats reads.
	ConvertFrac float64
}

// DefaultBrokerLoadConfig is the standard broker traffic shape: paper-scale
// radii and budgets, a 90% arrival-heavy mix, and the given stream size.
func DefaultBrokerLoadConfig(campaigns, ops int, seed int64) BrokerLoadConfig {
	return BrokerLoadConfig{
		Campaigns:   campaigns,
		Ops:         ops,
		ArrivalFrac: 0.90,
		TopUpFrac:   0.04,
		PauseFrac:   0.02,
		Radius:      stats.Range{Lo: 0.02, Hi: 0.08},
		Budget:      stats.Range{Lo: 5, Hi: 50},
		Capacity:    stats.Range{Lo: 1, Hi: 4},
		ViewProb:    stats.Range{Lo: 0.1, Hi: 0.9},
		NumTags:     8,
		Seed:        seed,
	}
}

// BilledBrokerLoadConfig is DefaultBrokerLoadConfig with a mixed billing
// fleet — roughly a quarter of campaigns on cpm, a third on cpc, the rest
// fixed — and a slice of the op stream turned into conversion events. The
// standard shape for slate-serving tests and the revenue audit.
func BilledBrokerLoadConfig(campaigns, ops int, seed int64) BrokerLoadConfig {
	cfg := DefaultBrokerLoadConfig(campaigns, ops, seed)
	cfg.ArrivalFrac = 0.84
	cfg.ConvertFrac = 0.06
	cfg.CPMFrac = 0.25
	cfg.CPCFrac = 0.35
	cfg.ReserveECPM = stats.Range{Lo: 1, Hi: 20}
	cfg.EventRate = stats.Range{Lo: 0.05, Hi: 0.5}
	return cfg
}

// ArrivalBrokerLoadConfig is DefaultBrokerLoadConfig with a pure-arrival
// stream (no top-ups, pauses or stats probes): the shape the batch-ingestion
// benchmarks sweep, where every op can join a batch window.
func ArrivalBrokerLoadConfig(campaigns, ops int, seed int64) BrokerLoadConfig {
	cfg := DefaultBrokerLoadConfig(campaigns, ops, seed)
	cfg.ArrivalFrac, cfg.TopUpFrac, cfg.PauseFrac = 1, 0, 0
	return cfg
}

// Validate reports configuration errors.
func (c BrokerLoadConfig) Validate() error {
	if c.Campaigns < 0 || c.Ops < 0 {
		return fmt.Errorf("workload: negative broker load sizes (%d campaigns, %d ops)", c.Campaigns, c.Ops)
	}
	for name, f := range map[string]float64{
		"arrival": c.ArrivalFrac, "top-up": c.TopUpFrac, "pause": c.PauseFrac,
		"convert": c.ConvertFrac, "cpm": c.CPMFrac, "cpc": c.CPCFrac,
	} {
		if f < 0 || f > 1 {
			return fmt.Errorf("workload: %s fraction %g outside [0,1]", name, f)
		}
	}
	if s := c.ArrivalFrac + c.TopUpFrac + c.PauseFrac + c.ConvertFrac; s > 1 {
		return fmt.Errorf("workload: op fractions sum to %g > 1", s)
	}
	if s := c.CPMFrac + c.CPCFrac; s > 1 {
		return fmt.Errorf("workload: billing fractions sum to %g > 1", s)
	}
	if c.CPMFrac > 0 || c.CPCFrac > 0 {
		if !c.ReserveECPM.Valid() || c.ReserveECPM.Lo < 0 {
			return fmt.Errorf("workload: invalid reserve eCPM range %v", c.ReserveECPM)
		}
	}
	if c.CPCFrac > 0 {
		if !c.EventRate.Valid() || c.EventRate.Lo <= 0 || c.EventRate.Hi > 1 {
			return fmt.Errorf("workload: invalid event rate range %v", c.EventRate)
		}
	}
	if c.Ops > 0 && (c.TopUpFrac > 0 || c.PauseFrac > 0) && c.Campaigns == 0 {
		return fmt.Errorf("workload: top-up/pause ops need at least one campaign")
	}
	for name, r := range map[string]stats.Range{
		"radius": c.Radius, "budget": c.Budget, "capacity": c.Capacity, "view probability": c.ViewProb,
	} {
		if !r.Valid() || r.Lo < 0 {
			return fmt.Errorf("workload: invalid broker load %s range %v", name, r)
		}
	}
	if c.ViewProb.Hi > 1 {
		return fmt.Errorf("workload: view probability range %v exceeds 1", c.ViewProb)
	}
	return nil
}

// BrokerLoad generates a deterministic broker workload: the campaigns to
// register (uniform locations, truncated-Gaussian radii and budgets, matching
// the Section V-A synthetic shape) and a mixed operation stream against them
// (Gaussian arrival locations around the city center, arrival hours uniform
// over the day). The same (config, seed) pair always yields the same stream.
func BrokerLoad(cfg BrokerLoadConfig) ([]BrokerCampaign, []BrokerOp, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := stats.NewRand(cfg.Seed)
	numTags := cfg.NumTags
	if numTags == 0 {
		numTags = 8
	}
	campaigns := make([]BrokerCampaign, cfg.Campaigns)
	for i := range campaigns {
		campaigns[i] = BrokerCampaign{
			Loc:    geo.Point{X: rng.Float64(), Y: rng.Float64()},
			Radius: stats.TruncGaussian(rng, cfg.Radius),
			Budget: stats.TruncGaussian(rng, cfg.Budget),
			Tags:   randomVector(rng, numTags),
		}
		// Billing draws happen only for a billed mix, so an all-fixed config
		// consumes exactly the rng sequence pre-billing loads did.
		if cfg.CPMFrac > 0 || cfg.CPCFrac > 0 {
			switch roll := rng.Float64(); {
			case roll < cfg.CPMFrac:
				campaigns[i].Billing = model.Billing{
					Model:       model.BillingCPM,
					ReserveECPM: stats.TruncGaussian(rng, cfg.ReserveECPM),
				}
			case roll < cfg.CPMFrac+cfg.CPCFrac:
				campaigns[i].Billing = model.Billing{
					Model:       model.BillingCPC,
					ReserveECPM: stats.TruncGaussian(rng, cfg.ReserveECPM),
					EventRate:   stats.TruncGaussian(rng, cfg.EventRate),
				}
			}
		}
	}
	ops := make([]BrokerOp, cfg.Ops)
	for i := range ops {
		roll := rng.Float64()
		switch {
		case roll < cfg.ArrivalFrac:
			x, y := stats.GaussianPoint(rng, 0.5, 1)
			ops[i] = BrokerOp{
				Kind:      OpArrival,
				Loc:       geo.Point{X: x, Y: y},
				Capacity:  stats.TruncGaussianInt(rng, cfg.Capacity),
				ViewProb:  stats.TruncGaussian(rng, cfg.ViewProb),
				Interests: randomVector(rng, numTags),
				Hour:      rng.Float64() * 24,
			}
		case roll < cfg.ArrivalFrac+cfg.TopUpFrac:
			ops[i] = BrokerOp{
				Kind:     OpTopUp,
				Campaign: int32(rng.Intn(cfg.Campaigns)),
				Amount:   stats.TruncGaussian(rng, cfg.Budget) / 4,
			}
		case roll < cfg.ArrivalFrac+cfg.TopUpFrac+cfg.PauseFrac:
			ops[i] = BrokerOp{
				Kind:     OpPause,
				Campaign: int32(rng.Intn(cfg.Campaigns)),
				Paused:   rng.Intn(2) == 0,
			}
		case roll < cfg.ArrivalFrac+cfg.TopUpFrac+cfg.PauseFrac+cfg.ConvertFrac:
			ops[i] = BrokerOp{Kind: OpConvert, Pick: rng.Uint64()}
		default:
			ops[i] = BrokerOp{Kind: OpStats}
		}
	}
	return campaigns, ops, nil
}
