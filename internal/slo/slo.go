// Package slo is the broker's burn-rate watchdog: it watches the
// time-series retention ring (obs.Sampler) and turns sustained threshold
// breaches into operator-grade alerts — structured slog events,
// muaa_slo_* state gauges, and the GET /v1/debug/slo document muaa-top's
// SLO panel renders.
//
// Each Rule names one ring series (a gauge, a counter rate, or a
// histogram quantile) and a threshold. Evaluation is the classic
// multi-window burn-rate test: the rule fires only when the fraction of
// breaching samples reaches Burn in BOTH a short and a long window — the
// long window proves the regression is sustained (one slow fsync does not
// page), the short window proves it is still happening (an incident that
// already ended does not page). Once firing, a rule resolves only after
// Clear consecutive evaluations whose short window is completely healthy
// — hysteresis, so a signal oscillating around its threshold fires once,
// not once per sample. Rules warm up: until the long window holds
// MinSamples valid points (NaN and, where configured, exact-zero samples
// are invalid) the rule reports "warmup" and never fires, which keeps an
// empty ring at boot from paging.
//
// The watchdog owns no goroutine: muaa-serve hangs EvalAt off the
// sampler's OnSample hook, so every evaluation sees exactly the sample
// that triggered it, and deterministic tests drive SampleAt + EvalAt with
// a synthetic clock.
package slo

import (
	"io"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"time"

	"muaa/internal/obs"
)

// Schema is the schema tag of the /v1/debug/slo document.
const Schema = "muaa-slo/1"

// Rule is one SLO: a ring series, a threshold, and the burn-rate windows
// that decide when a breach becomes an alert.
type Rule struct {
	// Name identifies the rule in logs, gauges, and the debug document.
	Name string
	// Series is the retention-ring series to watch (e.g.
	// "muaa_broker_arrival_seconds:p99", "muaa_broker_empirical_ratio").
	Series string
	// Threshold is the boundary; Below selects the direction: false fires
	// when samples exceed Threshold (latency, backlog), true fires when
	// they fall under it (the competitive ratio).
	Threshold float64
	Below     bool
	// SkipZero treats exact-zero samples as invalid — for gauges that read
	// 0 before their subsystem produced a value (the audit ratio).
	SkipZero bool
	// Short and Long are the burn-rate windows; Burn the breach fraction
	// both must reach; MinSamples the long-window warm-up; Clear the
	// consecutive healthy evaluations that resolve a firing rule.
	Short, Long time.Duration
	Burn        float64
	MinSamples  int
	Clear       int
}

// State is a rule's lifecycle position.
type State string

const (
	// StateWarmup: the long window has fewer than MinSamples valid points.
	StateWarmup State = "warmup"
	// StateOK: enough data, not firing.
	StateOK State = "ok"
	// StateFiring: both windows breached; not yet resolved.
	StateFiring State = "firing"
)

// RuleStatus is one rule's row in the /v1/debug/slo document.
type RuleStatus struct {
	Name       string   `json:"name"`
	Series     string   `json:"series"`
	State      State    `json:"state"`
	Value      *float64 `json:"value"` // newest valid sample; null before one exists
	Threshold  float64  `json:"threshold"`
	Below      bool     `json:"below"`
	ShortBurn  float64  `json:"short_burn"`  // breach fraction, short window
	LongBurn   float64  `json:"long_burn"`   // breach fraction, long window
	ShortValid int      `json:"short_valid"` // valid samples, short window
	LongValid  int      `json:"long_valid"`  // valid samples, long window
	SinceUnix  float64  `json:"since_unix"`  // last state transition (0 = never)
	Fired      uint64   `json:"fired_total"`
}

// Snapshot is the full /v1/debug/slo document.
type Snapshot struct {
	Schema   string       `json:"schema"`
	EvalUnix float64      `json:"eval_unix"` // wall time of the last evaluation
	Evals    uint64       `json:"evals"`
	Firing   int          `json:"firing"`
	Rules    []RuleStatus `json:"rules"`
}

// ruleState is the mutable half of a rule, guarded by Watchdog.mu.
type ruleState struct {
	state     State
	okStreak  int // consecutive fully-healthy evals while firing
	sinceUnix float64
	fired     uint64
	last      RuleStatus // as of the most recent evaluation
	gauge     *obs.Gauge // muaa_slo_state{rule=...}: 0 ok/warmup, 1 firing
}

// Watchdog evaluates a fixed rule set against a sampler's retention rings.
type Watchdog struct {
	sampler *obs.Sampler
	logger  *slog.Logger
	rules   []Rule

	mu       sync.Mutex
	states   []ruleState
	evals    uint64
	evalUnix float64
	firing   *obs.Gauge // muaa_slo_firing: rules currently firing
}

// New builds a watchdog over sampler with the given rules and registers
// its muaa_slo_* gauges on reg. A nil logger discards events. Rule names
// must be unique (the per-rule gauge label).
func New(sampler *obs.Sampler, reg *obs.Registry, logger *slog.Logger, rules []Rule) *Watchdog {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	w := &Watchdog{
		sampler: sampler,
		logger:  logger,
		rules:   rules,
		states:  make([]ruleState, len(rules)),
		firing: reg.NewGauge("muaa_slo_firing",
			"SLO rules currently firing."),
	}
	for i, r := range rules {
		w.states[i] = ruleState{
			state: StateWarmup,
			gauge: reg.NewGauge("muaa_slo_state",
				"Rule state: 0 ok or warming up, 1 firing.",
				obs.L("rule", r.Name)),
			last: RuleStatus{
				Name: r.Name, Series: r.Series, State: StateWarmup,
				Threshold: r.Threshold, Below: r.Below,
			},
		}
	}
	return w
}

// EvalAt evaluates every rule against the rings as of now. muaa-serve
// calls it from the sampler's OnSample hook; tests call it directly after
// SampleAt with the same synthetic clock.
func (w *Watchdog) EvalAt(now time.Time) {
	nowUnix := float64(now.UnixNano()) / 1e9

	// Pull each rule's ring once, outside the state lock.
	rows := make([]RuleStatus, len(w.rules))
	for i, r := range w.rules {
		rows[i] = w.observe(r, nowUnix)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	w.evals++
	w.evalUnix = nowUnix
	nFiring := 0
	for i := range w.rules {
		r := &w.rules[i]
		st := &w.states[i]
		row := rows[i]

		switch st.state {
		case StateFiring:
			row.State = StateFiring
			if row.ShortValid > 0 && row.ShortBurn == 0 {
				st.okStreak++
			} else {
				st.okStreak = 0
			}
			if st.okStreak >= r.Clear {
				st.state = StateOK
				st.sinceUnix = nowUnix
				row.State = StateOK
				st.gauge.Set(0)
				w.logger.Info("slo_resolved",
					"rule", r.Name, "series", r.Series,
					"ok_evals", st.okStreak, "threshold", r.Threshold)
				st.okStreak = 0
			}
		default: // warmup or ok
			if row.LongValid < r.MinSamples {
				row.State = StateWarmup
				st.state = StateWarmup
				break
			}
			row.State = StateOK
			st.state = StateOK
			if row.ShortValid > 0 && row.ShortBurn >= r.Burn && row.LongBurn >= r.Burn {
				st.state = StateFiring
				st.sinceUnix = nowUnix
				st.fired++
				st.okStreak = 0
				row.State = StateFiring
				st.gauge.Set(1)
				val := math.NaN()
				if row.Value != nil {
					val = *row.Value
				}
				w.logger.Warn("slo_firing",
					"rule", r.Name, "series", r.Series,
					"value", val, "threshold", r.Threshold, "below", r.Below,
					"short_burn", row.ShortBurn, "long_burn", row.LongBurn)
			}
		}
		row.SinceUnix = st.sinceUnix
		row.Fired = st.fired
		st.last = row
		if st.state == StateFiring {
			nFiring++
		}
	}
	w.firing.Set(float64(nFiring))
}

// observe reads one rule's ring and computes its window statistics.
func (w *Watchdog) observe(r Rule, nowUnix float64) RuleStatus {
	row := RuleStatus{
		Name: r.Name, Series: r.Series,
		Threshold: r.Threshold, Below: r.Below,
	}
	snap := w.sampler.Query(obs.TimeSeriesQuery{Prefixes: []string{r.Series}})
	var pts []obs.Point
	for _, sr := range snap.Series {
		if sr.Name == r.Series { // Prefixes prefix-matches; require exact
			pts = sr.Points
			break
		}
	}
	shortCut := nowUnix - r.Short.Seconds()
	longCut := nowUnix - r.Long.Seconds()
	var shortBad, longBad int
	for _, p := range pts {
		if p.Unix < longCut || math.IsNaN(p.Value) || (r.SkipZero && p.Value == 0) {
			continue
		}
		breach := p.Value > r.Threshold
		if r.Below {
			breach = p.Value < r.Threshold
		}
		row.LongValid++
		if breach {
			longBad++
		}
		if p.Unix >= shortCut {
			row.ShortValid++
			if breach {
				shortBad++
			}
		}
		v := p.Value
		row.Value = &v // newest valid sample wins (points are oldest-first)
	}
	if row.ShortValid > 0 {
		row.ShortBurn = float64(shortBad) / float64(row.ShortValid)
	}
	if row.LongValid > 0 {
		row.LongBurn = float64(longBad) / float64(row.LongValid)
	}
	return row
}

// Snapshot returns the current /v1/debug/slo document.
func (w *Watchdog) Snapshot() Snapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := Snapshot{
		Schema:   Schema,
		EvalUnix: w.evalUnix,
		Evals:    w.evals,
		Rules:    make([]RuleStatus, len(w.states)),
	}
	for i := range w.states {
		out.Rules[i] = w.states[i].last
		if w.states[i].state == StateFiring {
			out.Firing++
		}
	}
	return out
}

// Handler serves GET /v1/debug/slo: the rule table with live burn
// fractions and firing state, deterministic given a deterministic clock.
func (w *Watchdog) Handler() http.Handler {
	return obs.MethodHandler(map[string]http.HandlerFunc{http.MethodGet: func(rw http.ResponseWriter, _ *http.Request) {
		obs.WriteJSON(rw, http.StatusOK, w.Snapshot())
	}})
}
