package simulate

// Deterministic pacing-controller simulation: a seeded broker op stream is
// replayed through a live broker — controller-on or controller-off — with the
// audit/controller cycle driven synchronously every StepEvery arrivals
// instead of by the wall-clock ticker. Same config, same seed, same trace:
// the scenario tests in internal/pacing pin the controller's behavior with
// golden step traces, and cmd/muaa-bench's -exp pacing reports the final
// full-stream competitive ratios controller-on vs controller-off.

import (
	"fmt"
	"time"

	"muaa/internal/broker"
	"muaa/internal/pacing"
	"muaa/internal/stats"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

// Ramp selects the traffic shape a pacing simulation replays. All ramps are
// deterministic transforms of the same seeded BrokerLoad stream.
type Ramp string

const (
	// RampSteady is the untransformed BrokerLoad mix: exchangeable traffic,
	// uniform hours. Budget scarcity is the only reason admission control
	// pays here.
	RampSteady Ramp = "steady"
	// RampBurst doubles viewing intent for the middle third of the stream — a
	// flash crowd. A broker that spent freely on the mediocre first third
	// meets the burst with empty budgets.
	RampBurst Ramp = "burst"
	// RampDiurnal makes arrival hours monotone over the stream and ramps
	// intent with the hour: the evening crowd converts best, so early
	// conservation is rewarded within the day.
	RampDiurnal Ramp = "diurnal"
	// RampExhaustion shrinks campaign budgets several-fold so every budget
	// exhausts mid-stream — the regime where the measured competitive ratio
	// collapses without pacing.
	RampExhaustion Ramp = "exhaustion"
)

// Ramps lists every traffic shape, in scenario-suite order.
func Ramps() []Ramp { return []Ramp{RampSteady, RampBurst, RampDiurnal, RampExhaustion} }

// PacingConfig parameterizes one pacing simulation run.
type PacingConfig struct {
	// Campaigns and Ops size the seeded stream; zero selects 16 and 3000
	// (the muaa-bench audit shape at scale 0.05).
	Campaigns int
	Ops       int
	// Ramp is the traffic shape; empty selects RampSteady.
	Ramp Ramp
	// Controller enables the pacing controller; nil runs controller-off
	// (the baseline every scenario compares against).
	Controller *pacing.Config
	// StepEvery is the synchronous audit+controller cadence in arrivals;
	// zero selects 50 (frequent early steps matter: most of the budget is
	// at stake in the first hours of the day).
	StepEvery int
	// DataDir, when non-empty, journals the run to a retained WAL there and
	// fills the result's ReplayRatio with a post-run offline audit replay
	// (greedy oracle) — the same yardstick BENCH_audit.json uses.
	DataDir string
	// GuaranteedEvery marks every n-th campaign as guaranteed-delivery
	// (floor 0.3, penalty 2); zero registers only best-effort campaigns.
	GuaranteedEvery int
	// Seed makes the run deterministic.
	Seed int64
}

func (c PacingConfig) withDefaults() PacingConfig {
	if c.Campaigns == 0 {
		c.Campaigns = 16
	}
	if c.Ops == 0 {
		c.Ops = 3000
	}
	if c.Ramp == "" {
		c.Ramp = RampSteady
	}
	if c.StepEvery == 0 {
		c.StepEvery = 50
	}
	return c
}

// PacingStepTrace is one synchronous controller step in a run's trace: the
// arrival count at the step, the window report's empirical ratio feeding the
// controller, and the boost/capped-count the decision applied (boost 1,
// capped 0 on controller-off runs).
type PacingStepTrace struct {
	Arrivals int
	Ratio    float64
	Boost    float64
	Capped   int
}

// PacingResult is the outcome of one pacing simulation.
type PacingResult struct {
	Arrivals int64
	Offers   int64
	// OnlineUtility and OracleUtility are the full-stream totals from the
	// live audit window; Ratio is their quotient.
	OnlineUtility float64
	OracleUtility float64
	Ratio         float64
	// ReplayRatio is the offline audit-replay ratio (greedy oracle) over the
	// run's retained WAL — the BENCH_audit.json yardstick. Zero unless
	// DataDir was set.
	ReplayRatio float64
	// FinalBoost and Epochs are the controller's end state (1 and 0 on
	// controller-off runs).
	FinalBoost float64
	Epochs     int64
	Trace      []PacingStepTrace
}

// PacingRun replays one seeded scenario and returns its result, or an error
// if the broker ends the run breaking its contract (Broker.CheckInvariants:
// no campaign past its budget, whatever the controller did). The broker's
// background audit ticker is parked (AuditEvery = 1h) and the audit +
// controller cycle is driven synchronously every StepEvery arrivals, so the
// run — including every controller decision — is a pure function of the
// config.
func PacingRun(cfg PacingConfig) (PacingResult, error) {
	cfg = cfg.withDefaults()
	specs, ops, err := pacingLoad(cfg)
	if err != nil {
		return PacingResult{}, err
	}

	bcfg := broker.Config{
		AdTypes:     workload.DefaultAdTypes(),
		AuditWindow: cfg.Ops, // cumulative window: the report is the ratio-so-far
		AuditEvery:  time.Hour,
	}
	if cfg.DataDir != "" {
		bcfg.DataDir = cfg.DataDir
		bcfg.WAL = wal.Options{Sync: wal.SyncNone, Retain: true}
	}
	if cfg.Controller != nil {
		cc := *cfg.Controller
		bcfg.Controller = &cc
	}
	b, err := broker.New(bcfg)
	if err != nil {
		return PacingResult{}, err
	}
	defer b.Close()

	for i, spec := range specs {
		if cfg.GuaranteedEvery > 0 && i%cfg.GuaranteedEvery == 0 {
			spec.Guaranteed = true
			spec.Floor = 0.3
			spec.Penalty = 2
		}
		if _, err := b.RegisterCampaignSpec(spec); err != nil {
			return PacingResult{}, err
		}
	}

	var res PacingResult
	arrivals := 0
	for _, op := range ops {
		switch op.Kind {
		case workload.OpArrival:
			if _, err := b.Arrive(broker.Arrival{
				Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb,
				Interests: op.Interests, Hour: op.Hour,
			}); err != nil {
				return PacingResult{}, err
			}
			arrivals++
			if arrivals%cfg.StepEvery == 0 {
				pt, err := pacingStep(b, cfg.Controller != nil, arrivals)
				if err != nil {
					return PacingResult{}, err
				}
				res.Trace = append(res.Trace, pt)
			}
		case workload.OpTopUp:
			if err := b.TopUp(op.Campaign, op.Amount); err != nil {
				return PacingResult{}, err
			}
		case workload.OpPause:
			if err := b.SetPaused(op.Campaign, op.Paused); err != nil {
				return PacingResult{}, err
			}
		case workload.OpStats:
			b.Stats()
		}
	}

	rep, err := b.AuditNow()
	if err != nil {
		return PacingResult{}, err
	}
	st := b.Stats()
	res.Arrivals = st.Arrivals
	res.Offers = st.OffersPushed
	res.OnlineUtility = rep.OnlineUtility
	res.OracleUtility = rep.OracleUtility
	res.Ratio = rep.EmpiricalRatio
	res.FinalBoost = st.PhiBoost
	res.Epochs = st.PacingEpoch
	if err := b.CheckInvariants(); err != nil {
		return PacingResult{}, fmt.Errorf("simulate: end of run: %w", err)
	}
	if cfg.DataDir != "" {
		if err := b.Close(); err != nil {
			return PacingResult{}, err
		}
		replay, err := broker.ReplayAudit(cfg.DataDir, broker.AuditConfig{
			AdTypes: workload.DefaultAdTypes(), Seed: cfg.Seed,
		})
		if err != nil {
			return PacingResult{}, err
		}
		res.ReplayRatio = replay.EmpiricalRatio
	}
	return res, nil
}

// pacingStep runs one synchronous audit (+ controller, when enabled) cycle
// and records the trace point.
func pacingStep(b *broker.Broker, controller bool, arrivals int) (PacingStepTrace, error) {
	rep, err := b.AuditNow()
	if err != nil {
		return PacingStepTrace{}, err
	}
	pt := PacingStepTrace{Arrivals: arrivals, Ratio: rep.EmpiricalRatio, Boost: 1}
	if controller {
		dec, err := b.PacingStep()
		if err != nil {
			return PacingStepTrace{}, err
		}
		pt.Boost = dec.Boost
		pt.Capped = dec.Capped()
	}
	return pt, nil
}

// pacingLoad generates the seeded stream for a scenario and applies its
// ramp transform. The pacing scenarios deviate from the default broker mix
// in three deliberate ways: no pause ops (the audit oracle ignores pauses by
// design — a pause-heavy stream depresses the ratio for reasons no admission
// policy can fix), no top-ups (budget scarcity is the experiment variable),
// and budgets sized so a 9k-op day exhausts them mid-stream.
func pacingLoad(cfg PacingConfig) ([]broker.CampaignSpec, []workload.BrokerOp, error) {
	lc := workload.DefaultBrokerLoadConfig(cfg.Campaigns, cfg.Ops, cfg.Seed)
	lc.PauseFrac, lc.TopUpFrac = 0, 0
	lc.ArrivalFrac = 0.96
	lc.Budget = stats.Range{Lo: 5, Hi: 20}
	if cfg.Ramp == RampExhaustion {
		// Several-fold scarcer budgets against the same traffic.
		lc.Budget = stats.Range{Lo: 2, Hi: 8}
	}
	campaigns, ops, err := workload.BrokerLoad(lc)
	if err != nil {
		return nil, nil, err
	}
	specs := make([]broker.CampaignSpec, len(campaigns))
	for i, c := range campaigns {
		specs[i] = broker.CampaignSpec{Loc: c.Loc, Radius: c.Radius, Budget: c.Budget, Tags: c.Tags}
	}

	// Every ramp replays one day in time order: arrival hours are monotone
	// over the stream. The generator's random hours model out-of-order
	// telemetry; a pacing scenario is about the day clock, and the
	// controller's pace law explicitly contracts on arrivals carrying it.
	na := 0
	for i := range ops {
		if ops[i].Kind == workload.OpArrival {
			na++
		}
	}
	if na == 0 {
		return nil, nil, fmt.Errorf("simulate: pacing stream has no arrivals")
	}
	k := 0
	for i := range ops {
		if ops[i].Kind != workload.OpArrival {
			continue
		}
		hour := 24 * float64(k) / float64(na)
		ops[i].Hour = hour
		switch cfg.Ramp {
		case RampSteady, RampExhaustion:
			// Intent untouched: exchangeable traffic on a real clock.
		case RampBurst:
			if k >= na/3 && k < 2*na/3 {
				if vp := ops[i].ViewProb * 2; vp > 1 {
					ops[i].ViewProb = 1
				} else {
					ops[i].ViewProb = vp
				}
			}
		case RampDiurnal:
			// Intent rises with the hour, blended with the generated
			// probability to keep individual variation (the simulate
			// intent-ramp convention).
			ramp := 0.1 + 0.8*hour/24
			if vp := (ops[i].ViewProb + ramp) / 2; vp > 1 {
				ops[i].ViewProb = 1
			} else {
				ops[i].ViewProb = vp
			}
		default:
			return nil, nil, fmt.Errorf("simulate: unknown ramp %q", cfg.Ramp)
		}
		k++
	}
	return specs, ops, nil
}
