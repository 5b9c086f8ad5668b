// Package pacing is the broker's quality feedback controller: it closes the
// loop from the live audit window (empirical competitive ratio, per-δ
// fixed-threshold counterfactuals, per-campaign pacing curves — see
// internal/audit) back into the admission path. Two actuators:
//
//   - a multiplicative boost on the adaptive threshold φ(δ), steered by the
//     fleet's pace error: φ's exponential ramp implicitly assumes budget
//     utilization tracks the day clock, so when the audit window shows the
//     fleet burning budget ahead of the hour (δ̄ > HourFraction) the boost
//     tightens admission toward g^(δ̄ − p) — conserving budget for the
//     better-converting traffic later in the day — and when the fleet is
//     behind pace and the measured ratio is poor it flattens (boost < 1) to
//     stop refusing utility the budget will never otherwise spend;
//   - per-campaign spend-rate caps: a campaign the window report shows
//     front-loading its budget is granted only a fraction of its remaining
//     budget per controller epoch (a token bucket refilled at each step), so
//     no campaign can burn out before the traffic it was priced for.
//
// The controller itself is a pure function: Decide maps a Snapshot (the
// latest audit report plus live campaign state) to a Decision. All mutable
// state — the boost, the epoch counter, each campaign's rate and allowance —
// lives in the broker, is written under its locks, and is WAL-logged as a
// versioned controller record, so crash recovery restores it bit-exactly
// without re-running any control law. AdCell-style guaranteed-delivery
// campaigns (Class, Floor, Penalty on registration) are first-class citizens:
// the controller never throttles a guaranteed campaign that is behind its
// delivery floor.
package pacing

import (
	"fmt"

	"muaa/internal/kvspec"
)

// Config parameterizes the control law. The zero value is NOT enabled — use
// Default() or ParseConfig; a nil *Config on the broker disables the
// controller entirely.
type Config struct {
	// TargetRatio is the empirical competitive ratio the controller treats
	// as healthy: at or above it the boost never flattens below 1 (the
	// paper's worst-case bound is kept intact), however far behind pace the
	// fleet falls. Default 0.85.
	TargetRatio float64
	// Gain is the fraction of the (log-space) distance to the steering
	// target the boost moves per step, in (0, 1]. Default 0.5.
	Gain float64
	// Deadband is the pace-error tolerance: while |utilization − day
	// fraction| stays within it the boost decays toward 1 instead of
	// steering; suppresses hunting on noise. Default 0.02.
	Deadband float64
	// PaceGain scales the steering target: the boost is steered toward
	// g^(PaceGain · pace error). 1 re-indexes the φ schedule by exactly the
	// skipped-ahead δ; above 1 overshoots — front-loading the correction.
	// Default 1.
	PaceGain float64
	// PaceBias is added to the pace error before steering: a positive bias
	// treats an on-pace fleet as slightly ahead, holding utilization just
	// behind the clock so budget is banked for the better-converting late
	// traffic instead of spent evenly. Default 0.08.
	PaceBias float64
	// BoostMin and BoostMax clamp the threshold boost. Defaults 1e-6 and 1e6
	// (symmetric in log space): a boost above 1 tightens admission beyond the
	// paper schedule — the "estimate a proper g for the real system" tuning
	// Section IV-C describes — while a boost below 1 flattens it, trading the
	// worst-case (ln g+1)/θ guarantee for the measured ratio when the audit
	// window shows the steep φ(δ) ramp refusing utility a flatter fixed
	// threshold would have taken. Set BoostMin = 1 to forbid flattening and
	// keep the paper bound intact.
	BoostMin, BoostMax float64
	// TightenAt is the pace lead — a campaign's budget utilization minus the
	// day fraction — at which its spend rate is capped to RateTight;
	// LoosenAt is the lead below which the cap is lifted again (hysteresis
	// requires LoosenAt < TightenAt). Defaults 0.1 and 0.02.
	TightenAt, LoosenAt float64
	// RateTight is the fraction of a capped campaign's *remaining* budget it
	// may spend per controller epoch. Default 0.1.
	RateTight float64
}

// Default returns the default control law.
func Default() Config {
	return Config{
		TargetRatio: 0.85,
		Gain:        0.5,
		Deadband:    0.02,
		PaceGain:    1,
		PaceBias:    0.08,
		BoostMin:    1e-6,
		BoostMax:    1e6,
		TightenAt:   0.1,
		LoosenAt:    0.02,
		RateTight:   0.1,
	}
}

// keys is the -pacing-controller spec: every key, the field it sets and the
// range Validate holds it to, in Validate's reporting order.
func (c *Config) keys() []kvspec.Key {
	return []kvspec.Key{
		{Name: "target", Value: &c.TargetRatio, Lo: 0, Hi: 1},
		{Name: "gain", Value: &c.Gain, Lo: 1e-9, Hi: 1},
		{Name: "deadband", Value: &c.Deadband, Lo: 0, Hi: 1},
		{Name: "pace-gain", Value: &c.PaceGain, Lo: 1e-9, Hi: 10},
		{Name: "pace-bias", Value: &c.PaceBias, Lo: -1, Hi: 1},
		{Name: "boost-min", Value: &c.BoostMin, Lo: 1e-9, Hi: 1e9},
		{Name: "boost-max", Value: &c.BoostMax, Lo: 1e-9, Hi: 1e9},
		{Name: "tighten-at", Value: &c.TightenAt, Lo: 0, Hi: 2},
		{Name: "loosen-at", Value: &c.LoosenAt, Lo: 0, Hi: 2},
		{Name: "rate", Value: &c.RateTight, Lo: 1e-9, Hi: 1},
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := kvspec.Check("pacing", c.keys()); err != nil {
		return err
	}
	if c.BoostMax < c.BoostMin {
		return fmt.Errorf("pacing: boost-max %g < boost-min %g", c.BoostMax, c.BoostMin)
	}
	if c.LoosenAt >= c.TightenAt {
		return fmt.Errorf("pacing: loosen-at %g must be below tighten-at %g", c.LoosenAt, c.TightenAt)
	}
	return nil
}

// ParseConfig parses the -pacing-controller flag value: "on" (or "default")
// selects Default(); otherwise a comma-separated k=v list overrides
// individual defaults, e.g. "target=0.8,rate=0.1,boost-max=64". Keys:
// target, gain, deadband, pace-gain, pace-bias, boost-min, boost-max,
// tighten-at, loosen-at, rate. The empty string is an error — the caller treats it as "disabled"
// before calling. Parsing never panics on any input.
func ParseConfig(s string) (Config, error) {
	cfg := Default()
	if err := kvspec.Parse("pacing", "controller", cfg.keys(), s); err != nil {
		return Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// String renders the config in ParseConfig's own syntax (keys sorted), so
// ParseConfig(cfg.String()) round-trips any valid config.
func (c Config) String() string { return kvspec.String(c.keys()) }
