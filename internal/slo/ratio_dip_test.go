package slo

// The PR's acceptance scenario: a seeded broker workload whose empirical
// competitive ratio dips below target must trip the ratio SLO — structured
// log event, muaa_slo_state gauge, /v1/debug/slo firing — and recover to
// OK through the hysteresis, all driven deterministically (parked audit
// ticker, synchronous AuditNow, synthetic sampler clock).

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"muaa/internal/broker"
	"muaa/internal/obs"
	"muaa/internal/workload"
)

func TestRatioDipTripsSLOAndRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	b, err := broker.New(broker.Config{
		AdTypes:     workload.DefaultAdTypes(),
		Metrics:     reg,
		AuditWindow: 64,
		AuditEvery:  time.Hour, // parked ticker: AuditNow is the only recompute
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Seeded fleet and arrival stream. Generous budgets and wide disks so
	// the healthy phases really serve (the dip comes from the pause blip,
	// not from exhaustion or sparse geometry).
	cfg := workload.DefaultBrokerLoadConfig(10, 400, 42)
	cfg.ArrivalFrac, cfg.TopUpFrac, cfg.PauseFrac = 1, 0, 0
	cfg.Budget.Lo, cfg.Budget.Hi = 500, 1000
	cfg.Radius.Lo, cfg.Radius.Hi = 0.25, 0.5
	specs, stream, err := workload.BrokerLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int32
	for _, c := range specs {
		id, err := b.RegisterCampaignSpec(broker.CampaignSpec{Loc: c.Loc, Radius: c.Radius, Budget: c.Budget, Tags: c.Tags})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	next := 0
	arrivals := func(n int) {
		t.Helper()
		for ; n > 0; next++ {
			op := stream[next%len(stream)]
			if op.Kind != workload.OpArrival {
				continue
			}
			if _, err := b.Arrive(broker.Arrival{
				Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb,
				Interests: op.Interests, Hour: op.Hour,
			}); err != nil {
				t.Fatal(err)
			}
			n--
		}
	}

	// Tight windows so the episode fits in a few synthetic minutes:
	// 5s sampling, 10s short window, 30s long window.
	wcfg := Default()
	wcfg.Short, wcfg.Long, wcfg.Burn, wcfg.Clear, wcfg.MinSamples = 10, 30, 0.9, 2, 3
	wcfg.RatioTarget = 0.5

	logs := &bytes.Buffer{}
	sampler := obs.NewSampler(reg, obs.SamplerOptions{Every: 5 * time.Second})
	wd := New(sampler, reg, slog.New(slog.NewJSONHandler(logs, nil)), wcfg.Rules())

	now := time.Unix(1_700_000_000, 0).UTC()
	tick := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			now = now.Add(5 * time.Second)
			sampler.SampleAt(now)
			wd.EvalAt(now)
		}
	}
	audit := func() float64 {
		t.Helper()
		rep, err := b.AuditNow()
		if err != nil {
			t.Fatal(err)
		}
		return rep.EmpiricalRatio
	}
	ratioRow := func() RuleStatus {
		t.Helper()
		for _, row := range wd.Snapshot().Rules {
			if row.Name == "ratio" {
				return row
			}
		}
		t.Fatal("ratio rule missing from snapshot")
		return RuleStatus{}
	}
	countLog := func(event string) int {
		n := 0
		for _, line := range strings.Split(logs.String(), "\n") {
			if strings.Contains(line, `"msg":"`+event+`"`) &&
				strings.Contains(line, `"rule":"ratio"`) {
				n++
			}
		}
		return n
	}
	stateGauge := func() string {
		var sb strings.Builder
		reg.WriteTextFiltered(&sb, "muaa_slo_state")
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, `muaa_slo_state{rule="ratio"} `) {
				return strings.TrimPrefix(line, `muaa_slo_state{rule="ratio"} `)
			}
		}
		return "<missing>"
	}

	// Phase 1 — healthy serving: the audit window fills with well-served
	// arrivals; the ratio rule leaves warm-up in the OK state.
	arrivals(100)
	if r := audit(); r <= wcfg.RatioTarget {
		t.Fatalf("healthy-phase ratio %g not above target %g; scenario broken", r, wcfg.RatioTarget)
	}
	tick(7) // 35s: past MinSamples and the long window
	if st := ratioRow(); st.State != StateOK || st.Fired != 0 {
		t.Fatalf("healthy phase: state %q fired %d, want ok/0", st.State, st.Fired)
	}

	// Phase 2 — the dip: an operator pause-blip. While the fleet is
	// paused, a window's worth of traffic lands unserved; once the fleet
	// is unpaused the (pause-aware) oracle again counts what that traffic
	// was worth against the budget that was sitting idle, and the windowed
	// ratio collapses.
	for _, id := range ids {
		if err := b.SetPaused(id, true); err != nil {
			t.Fatal(err)
		}
	}
	// Most (not all) of the 64-arrival window goes unserved: a handful of
	// phase-1 served arrivals keep the windowed ratio strictly positive —
	// the gauge's exact-zero reads are reserved for "no audit yet" and
	// skipped by the rule.
	arrivals(56)
	for _, id := range ids {
		if err := b.SetPaused(id, false); err != nil {
			t.Fatal(err)
		}
	}
	if r := audit(); r >= wcfg.RatioTarget {
		t.Fatalf("dip-phase ratio %g not below target %g; scenario broken", r, wcfg.RatioTarget)
	}
	tick(8) // 40s: healthy samples age out of the 30s long window → fires
	st := ratioRow()
	if st.State != StateFiring || st.Fired != 1 {
		t.Fatalf("dip phase: state %q fired %d (short %g long %g), want firing once",
			st.State, st.Fired, st.ShortBurn, st.LongBurn)
	}
	if got := stateGauge(); got != "1" {
		t.Fatalf("muaa_slo_state{rule=ratio} = %s, want 1", got)
	}
	if n := countLog("slo_firing"); n != 1 {
		t.Fatalf("slo_firing events = %d, want 1\n%s", n, logs.String())
	}

	// The debug endpoint reports the firing state.
	srv := httptest.NewServer(wd.Handler())
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.Close()
	if snap.Firing < 1 {
		t.Fatalf("/v1/debug/slo firing = %d, want ≥ 1", snap.Firing)
	}

	// Phase 3 — recovery: the unpaused fleet refills the window with
	// served traffic and the hysteresis resolves the rule. fired_total
	// must stay 1 — one episode, one page.
	arrivals(80)
	if r := audit(); r <= wcfg.RatioTarget {
		t.Fatalf("recovery-phase ratio %g not above target %g; scenario broken", r, wcfg.RatioTarget)
	}
	tick(8) // 40s: breaches age out of the short window, then Clear=2 clean evals
	st = ratioRow()
	if st.State != StateOK || st.Fired != 1 {
		t.Fatalf("recovery: state %q fired %d, want ok with a single fire", st.State, st.Fired)
	}
	if got := stateGauge(); got != "0" {
		t.Fatalf("muaa_slo_state{rule=ratio} = %s, want 0 after resolve", got)
	}
	if n := countLog("slo_resolved"); n != 1 {
		t.Fatalf("slo_resolved events = %d, want 1", n)
	}
}
