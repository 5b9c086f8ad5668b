package slo

import (
	"fmt"
	"math"
	"time"

	"muaa/internal/kvspec"
)

// Config parameterizes the default broker rule set and the shared
// evaluation windows. The zero value is NOT usable — use Default() or
// ParseConfig; muaa-serve treats an empty -slo flag as "watchdog off".
//
// Every threshold key disables its rule when set negative; zero is a legal
// (degenerate) threshold, e.g. goroutines-max=0 fires on any goroutine —
// the trick the CI smoke uses to trip a rule deliberately.
type Config struct {
	// Short and Long are the two burn-rate windows in seconds: a rule
	// fires only when the breach fraction reaches Burn in BOTH — the long
	// window proves the problem is sustained, the short window proves it
	// is still happening. Defaults 60 and 300.
	Short, Long float64
	// Burn is the fraction of valid samples inside a window that must
	// breach the threshold, in (0, 1]. Default 0.9.
	Burn float64
	// Clear is the number of consecutive fully-healthy evaluations (zero
	// breaches in the short window) required to resolve a firing rule —
	// the hysteresis that stops a flapping signal from re-firing every
	// sample. Default 3.
	Clear float64
	// MinSamples is the number of valid (non-NaN, non-skipped) points the
	// long window must hold before a rule may fire: the warm-up guard
	// against alerting on an empty ring at boot. Default 3.
	MinSamples float64

	// RatioTarget fires the "ratio" rule when the audit's empirical
	// competitive ratio (muaa_broker_empirical_ratio) dips below it; the
	// gauge reads 0 until the first audit recompute, and those samples are
	// skipped. ≤ 0 disables. Default 0.75.
	RatioTarget float64
	// ArrivalP99Ms fires "arrival_p99" when the sampled p99 of
	// muaa_broker_arrival_seconds exceeds it (milliseconds). Default 5.
	ArrivalP99Ms float64
	// FloorMax fires "pacing_floor" when muaa_pacing_floor_shortfall (the
	// budget units guaranteed campaigns still owe their delivery floors)
	// stays above it. The healthy value is fleet-specific — mid-day a
	// guaranteed fleet legitimately carries shortfall — so the rule ships
	// disabled (-1) and operators opt in with a fleet-sized value.
	FloorMax float64
	// WalP99Ms fires "wal_fsync" when the sampled p99 of
	// muaa_wal_flush_seconds exceeds it (milliseconds). Default 50.
	WalP99Ms float64
	// EscrowOpenMax fires "escrow_open" when muaa_billing_escrow_open
	// grows past it — open CPC/CPA holds approaching the 65,536-entry
	// table overflow at which budget starts releasing early. Default 50000.
	EscrowOpenMax float64
	// HeapMaxMB fires "heap" when go_heap_alloc_bytes exceeds it (MiB).
	// Default 1024.
	HeapMaxMB float64
	// GoroutinesMax fires "goroutines" when go_goroutines exceeds it.
	// Default 5000.
	GoroutinesMax float64
}

// Default returns the default watchdog configuration.
func Default() Config {
	return Config{
		Short:         60,
		Long:          300,
		Burn:          0.9,
		Clear:         3,
		MinSamples:    3,
		RatioTarget:   0.75,
		ArrivalP99Ms:  5,
		FloorMax:      -1,
		WalP99Ms:      50,
		EscrowOpenMax: 50000,
		HeapMaxMB:     1024,
		GoroutinesMax: 5000,
	}
}

// keys is the -slo spec: every key, the field it sets and the range Validate
// holds it to, in Validate's reporting order.
func (c *Config) keys() []kvspec.Key {
	return []kvspec.Key{
		{Name: "short", Value: &c.Short, Lo: 1, Hi: 86400},
		{Name: "long", Value: &c.Long, Lo: 1, Hi: 7 * 86400},
		{Name: "burn", Value: &c.Burn, Lo: 1e-9, Hi: 1},
		{Name: "clear", Value: &c.Clear, Lo: 1, Hi: 1e6},
		{Name: "min-samples", Value: &c.MinSamples, Lo: 1, Hi: 1e6},
		{Name: "ratio-target", Value: &c.RatioTarget, Lo: -1, Hi: 1},
		{Name: "arrival-p99-ms", Value: &c.ArrivalP99Ms, Lo: -1, Hi: 1e9},
		{Name: "floor-max", Value: &c.FloorMax, Lo: -1, Hi: 1e18},
		{Name: "wal-p99-ms", Value: &c.WalP99Ms, Lo: -1, Hi: 1e9},
		{Name: "escrow-open-max", Value: &c.EscrowOpenMax, Lo: -1, Hi: 1e12},
		{Name: "heap-max-mb", Value: &c.HeapMaxMB, Lo: -1, Hi: 1e9},
		{Name: "goroutines-max", Value: &c.GoroutinesMax, Lo: -1, Hi: 1e9},
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := kvspec.Check("slo", c.keys()); err != nil {
		return err
	}
	if c.Long < c.Short {
		return fmt.Errorf("slo: long %g must be ≥ short %g", c.Long, c.Short)
	}
	if c.Clear != math.Trunc(c.Clear) || c.MinSamples != math.Trunc(c.MinSamples) {
		return fmt.Errorf("slo: clear and min-samples must be integers")
	}
	return nil
}

// ParseConfig parses the -slo flag value in the syntax -pacing-controller
// shares (internal/kvspec): "on" (or "default") selects Default(); otherwise
// a comma-separated k=v list overrides individual defaults, e.g.
// "ratio-target=0.8,short=30,goroutines-max=-1". Keys: short, long, burn,
// clear, min-samples, ratio-target, arrival-p99-ms, floor-max, wal-p99-ms,
// escrow-open-max, heap-max-mb, goroutines-max. Threshold keys set
// negative disable their rule. The empty string is an error — the caller
// treats it as "disabled" before calling. Parsing never panics.
func ParseConfig(s string) (Config, error) {
	cfg := Default()
	if err := kvspec.Parse("slo", "watchdog", cfg.keys(), s); err != nil {
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

// Rules expands the config into the default broker rule set, skipping
// disabled (negative-threshold) rules. The series names are the retention
// ring's derived names over the broker/WAL/runtime instruments muaa-serve
// registers; a rule whose series never appears simply stays in warm-up.
func (c Config) Rules() []Rule {
	shared := Rule{
		Short:      time.Duration(c.Short * float64(time.Second)),
		Long:       time.Duration(c.Long * float64(time.Second)),
		Burn:       c.Burn,
		Clear:      int(c.Clear),
		MinSamples: int(c.MinSamples),
	}
	mk := func(name, series string, threshold float64, below, skipZero bool) Rule {
		r := shared
		r.Name, r.Series, r.Threshold, r.Below, r.SkipZero = name, series, threshold, below, skipZero
		return r
	}
	var rules []Rule
	if c.ArrivalP99Ms >= 0 {
		rules = append(rules, mk("arrival_p99",
			"muaa_broker_arrival_seconds:p99", c.ArrivalP99Ms/1e3, false, false))
	}
	if c.RatioTarget > 0 {
		// The ratio gauge reads 0 until the first audit recompute — skip
		// those samples rather than page on an idle broker.
		rules = append(rules, mk("ratio",
			"muaa_broker_empirical_ratio", c.RatioTarget, true, true))
	}
	if c.FloorMax >= 0 {
		rules = append(rules, mk("pacing_floor",
			"muaa_pacing_floor_shortfall", c.FloorMax, false, false))
	}
	if c.WalP99Ms >= 0 {
		rules = append(rules, mk("wal_fsync",
			"muaa_wal_flush_seconds:p99", c.WalP99Ms/1e3, false, false))
	}
	if c.EscrowOpenMax >= 0 {
		rules = append(rules, mk("escrow_open",
			"muaa_billing_escrow_open", c.EscrowOpenMax, false, false))
	}
	if c.HeapMaxMB >= 0 {
		rules = append(rules, mk("heap",
			"go_heap_alloc_bytes", c.HeapMaxMB*(1<<20), false, false))
	}
	if c.GoroutinesMax >= 0 {
		rules = append(rules, mk("goroutines",
			"go_goroutines", c.GoroutinesMax, false, false))
	}
	return rules
}
