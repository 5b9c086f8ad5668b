package slo

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"muaa/internal/obs"
)

var base = time.Unix(1_700_000_000, 0).UTC()

// rig is a registry + sampler + watchdog trio driven by a synthetic clock.
type rig struct {
	reg     *obs.Registry
	sampler *obs.Sampler
	wd      *Watchdog
	logs    *bytes.Buffer
	now     time.Time
}

func newRig(t *testing.T, rules []Rule) *rig {
	t.Helper()
	r := &rig{reg: obs.NewRegistry(), logs: &bytes.Buffer{}, now: base}
	r.sampler = obs.NewSampler(r.reg, obs.SamplerOptions{})
	logger := slog.New(slog.NewJSONHandler(r.logs, nil))
	r.wd = New(r.sampler, r.reg, logger, rules)
	return r
}

// tick advances the synthetic clock one sampling period and runs a
// sample + evaluation, the same order muaa-serve's OnSample hook uses.
func (r *rig) tick(dt time.Duration) {
	r.now = r.now.Add(dt)
	r.sampler.SampleAt(r.now)
	r.wd.EvalAt(r.now)
}

func (r *rig) status(t *testing.T, name string) RuleStatus {
	t.Helper()
	for _, row := range r.wd.Snapshot().Rules {
		if row.Name == name {
			return row
		}
	}
	t.Fatalf("rule %q not in snapshot", name)
	return RuleStatus{}
}

func (r *rig) logCount(event, rule string) int {
	n := 0
	for _, line := range strings.Split(r.logs.String(), "\n") {
		if strings.Contains(line, `"msg":"`+event+`"`) &&
			strings.Contains(line, `"rule":"`+rule+`"`) {
			n++
		}
	}
	return n
}

func (r *rig) gauge(t *testing.T, sample string) string {
	t.Helper()
	var sb strings.Builder
	r.reg.WriteTextFiltered(&sb, "muaa_slo_")
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, sample+" ") {
			return strings.TrimPrefix(line, sample+" ")
		}
	}
	t.Fatalf("sample %q not in scrape:\n%s", sample, sb.String())
	return ""
}

// TestWatchdogFireAndResolve walks one above-threshold rule through the
// full lifecycle — warmup, ok, firing, hysteresis hold, resolved — and
// pins the single fire/resolve pair (gauges, logs, snapshot).
func TestWatchdogFireAndResolve(t *testing.T) {
	rule := Rule{
		Name: "lag", Series: "lag_seconds", Threshold: 1,
		Short: 10 * time.Second, Long: 20 * time.Second,
		Burn: 0.9, MinSamples: 3, Clear: 3,
	}
	r := newRig(t, []Rule{rule})
	g := r.reg.NewGauge("lag_seconds", "x")

	// Warm-up: two healthy samples are below MinSamples.
	g.Set(0.5)
	r.tick(5 * time.Second)
	r.tick(5 * time.Second)
	if st := r.status(t, "lag"); st.State != StateWarmup {
		t.Fatalf("state after 2 samples = %q, want warmup", st.State)
	}

	// Third healthy sample: ok.
	r.tick(5 * time.Second)
	if st := r.status(t, "lag"); st.State != StateOK {
		t.Fatalf("state = %q, want ok", st.State)
	}

	// Breach: the short window (3 pts at 5s) fills with breaching samples
	// quickly, but the long window still remembers the healthy ones — the
	// rule must hold until the burn fraction clears 0.9 in BOTH.
	g.Set(3)
	r.tick(5 * time.Second)
	if st := r.status(t, "lag"); st.State != StateOK {
		t.Fatalf("fired with healthy long window (state %q)", st.State)
	}
	for i := 0; i < 4; i++ {
		r.tick(5 * time.Second)
	}
	st := r.status(t, "lag")
	if st.State != StateFiring || st.Fired != 1 {
		t.Fatalf("state = %q fired = %d, want firing once (short %g long %g)",
			st.State, st.Fired, st.ShortBurn, st.LongBurn)
	}
	if got := r.gauge(t, `muaa_slo_state{rule="lag"}`); got != "1" {
		t.Fatalf("state gauge = %s, want 1", got)
	}
	if got := r.gauge(t, "muaa_slo_firing"); got != "1" {
		t.Fatalf("firing gauge = %s, want 1", got)
	}
	if n := r.logCount("slo_firing", "lag"); n != 1 {
		t.Fatalf("slo_firing logged %d times, want 1", n)
	}

	// Still breaching: no duplicate fire events (hysteresis).
	r.tick(5 * time.Second)
	if n := r.logCount("slo_firing", "lag"); n != 1 {
		t.Fatalf("duplicate slo_firing while already firing (%d events)", n)
	}

	// Recovery: healthy samples age the breaches out of the short window
	// (10s = 2 samples), then Clear=3 consecutive clean evals resolve.
	g.Set(0.5)
	resolvedAt := -1
	for i := 0; i < 8; i++ {
		r.tick(5 * time.Second)
		if r.status(t, "lag").State == StateOK {
			resolvedAt = i
			break
		}
	}
	if resolvedAt < 0 {
		t.Fatal("rule never resolved")
	}
	// 2 ticks flush the short window, then 3 clean evals: not before tick 4.
	if resolvedAt < 4 {
		t.Fatalf("resolved after %d healthy ticks, want ≥ 5 (hysteresis)", resolvedAt+1)
	}
	if n := r.logCount("slo_resolved", "lag"); n != 1 {
		t.Fatalf("slo_resolved logged %d times, want 1", n)
	}
	if got := r.gauge(t, `muaa_slo_state{rule="lag"}`); got != "0" {
		t.Fatalf("state gauge = %s, want 0 after resolve", got)
	}
	if st := r.status(t, "lag"); st.Fired != 1 {
		t.Fatalf("fired_total = %d, want 1 across the whole episode", st.Fired)
	}
}

// TestWatchdogFlappingSignalFiresOnce: a signal oscillating around its
// threshold must not emit a fire/resolve pair per oscillation.
func TestWatchdogFlappingSignalFiresOnce(t *testing.T) {
	rule := Rule{
		Name: "flap", Series: "flap_gauge", Threshold: 1,
		Short: 10 * time.Second, Long: 10 * time.Second,
		Burn: 0.5, MinSamples: 2, Clear: 4,
	}
	r := newRig(t, []Rule{rule})
	g := r.reg.NewGauge("flap_gauge", "x")

	// Alternate breach/healthy every sample: short-window burn hovers at
	// 0.5 ≥ Burn, and the ok-streak never reaches Clear=4.
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			g.Set(2)
		} else {
			g.Set(0.5)
		}
		r.tick(5 * time.Second)
	}
	if n := r.logCount("slo_firing", "flap"); n != 1 {
		t.Fatalf("flapping signal fired %d times, want exactly 1", n)
	}
	if n := r.logCount("slo_resolved", "flap"); n != 0 {
		t.Fatalf("flapping signal resolved %d times, want 0 (streak < Clear)", n)
	}
}

// TestWatchdogBelowRuleSkipsZeros: a below-threshold rule (the ratio shape)
// must ignore the gauge's pre-warm zero reads instead of firing at boot.
func TestWatchdogBelowRuleSkipsZeros(t *testing.T) {
	rule := Rule{
		Name: "ratio", Series: "ratio_gauge", Threshold: 0.75, Below: true,
		SkipZero: true,
		Short:    10 * time.Second, Long: 20 * time.Second,
		Burn: 0.9, MinSamples: 2, Clear: 2,
	}
	r := newRig(t, []Rule{rule})
	g := r.reg.NewGauge("ratio_gauge", "x") // reads 0 until first audit

	for i := 0; i < 6; i++ {
		r.tick(5 * time.Second)
	}
	st := r.status(t, "ratio")
	if st.State != StateWarmup || st.Fired != 0 {
		t.Fatalf("zero-only series: state %q fired %d, want warmup/0", st.State, st.Fired)
	}
	if st.Value != nil {
		t.Fatalf("zero samples should be invalid, got value %v", *st.Value)
	}

	// Healthy ratio, then a dip below target: fires.
	g.Set(0.95)
	r.tick(5 * time.Second)
	r.tick(5 * time.Second)
	if st := r.status(t, "ratio"); st.State != StateOK {
		t.Fatalf("state = %q, want ok at ratio 0.95", st.State)
	}
	g.Set(0.4)
	for i := 0; i < 6; i++ {
		r.tick(5 * time.Second)
	}
	st = r.status(t, "ratio")
	if st.State != StateFiring || st.Fired != 1 {
		t.Fatalf("dip to 0.4: state %q fired %d, want firing once", st.State, st.Fired)
	}
	if st.Value == nil || *st.Value != 0.4 {
		t.Fatalf("value = %v, want 0.4", st.Value)
	}
}

// TestWatchdogMissingSeriesStaysWarmup: a rule over a series that never
// appears (subsystem not wired) must idle in warmup, not fire or panic.
func TestWatchdogMissingSeriesStaysWarmup(t *testing.T) {
	rule := Rule{
		Name: "ghost", Series: "no_such_series", Threshold: 1,
		Short: 10 * time.Second, Long: 20 * time.Second,
		Burn: 0.9, MinSamples: 1, Clear: 1,
	}
	r := newRig(t, []Rule{rule})
	for i := 0; i < 5; i++ {
		r.tick(5 * time.Second)
	}
	if st := r.status(t, "ghost"); st.State != StateWarmup || st.Fired != 0 {
		t.Fatalf("missing series: state %q fired %d", st.State, st.Fired)
	}
}

func TestWatchdogHandler(t *testing.T) {
	rule := Rule{
		Name: "lag", Series: "lag_seconds", Threshold: 1,
		Short: 10 * time.Second, Long: 20 * time.Second,
		Burn: 0.9, MinSamples: 1, Clear: 1,
	}
	r := newRig(t, []Rule{rule})
	r.reg.NewGauge("lag_seconds", "x").Set(0.5)
	r.tick(5 * time.Second)

	srv := httptest.NewServer(r.wd.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET → %d", resp.StatusCode)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != Schema || snap.Evals != 1 || len(snap.Rules) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Rules[0].Name != "lag" || snap.Rules[0].State != StateOK {
		t.Fatalf("rule row = %+v", snap.Rules[0])
	}
	if snap.EvalUnix != float64(base.Add(5*time.Second).Unix()) {
		t.Fatalf("eval_unix = %g", snap.EvalUnix)
	}

	post, err := srv.Client().Post(srv.URL, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(post.Body)
	post.Body.Close()
	if post.StatusCode != 405 || !strings.Contains(string(body), "method_not_allowed") {
		t.Fatalf("POST → %d %s, want 405 envelope", post.StatusCode, body)
	}
}
