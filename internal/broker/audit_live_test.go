package broker

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"muaa/internal/audit"
	"muaa/internal/workload"
)

// TestAuditNowFirstRecomputeMemory pins what the live recompute costs the
// process's peak memory: on muaa-serve's defaults, with the `single`
// workload's 512-campaign budget-rich fleet and a full 4 096-arrival window,
// the first AuditNow — the one that also sizes the oracle's scratch —
// allocates at most 5 MB (TotalAlloc delta). A recompute that sorts every
// (customer, campaign, ad type) triple and replays the stream three times
// allocates about 15.6 MB.
func TestAuditNowFirstRecomputeMemory(t *testing.T) {
	b, err := New(serveDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cfg := workload.DefaultBrokerLoadConfig(512, 4096, 42)
	cfg.ArrivalFrac, cfg.TopUpFrac, cfg.PauseFrac = 1, 0, 0
	cfg.Budget.Lo, cfg.Budget.Hi = 1e4*cfg.Budget.Lo, 1e4*cfg.Budget.Hi
	fleet, ops, err := workload.BrokerLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, b, fleet)
	feed := &opFeed{tb: t, b: b}
	for _, op := range ops {
		feed.apply(op)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := b.AuditNow()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrivals != 4096 {
		t.Fatalf("audited %d arrivals, want a full window of 4096", rep.Arrivals)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("first recompute: %.2f MB in %d allocations", float64(alloc)/(1<<20), after.Mallocs-before.Mallocs)
	if alloc > 5<<20 {
		t.Fatalf("first recompute allocated %.2f MB, want ≤ 5 MB", float64(alloc)/(1<<20))
	}
}

// TestAuditNowMatchesReference: the live recompute is audit.Compute with
// the plain core.Greedy reference — sort-free kernel, θ from its gather —
// on every field but the replay columns it leaves out. Those are absent,
// not zero, in the live JSON.
func TestAuditNowMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		b, err := New(serveDefaults())
		if err != nil {
			t.Fatal(err)
		}
		fleet, ops, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(96, 3000, seed))
		if err != nil {
			t.Fatal(err)
		}
		registerLoad(t, b, fleet)
		feed := &opFeed{tb: t, b: b}
		for _, op := range ops {
			feed.apply(op)
		}
		live, err := b.AuditNow()
		if err != nil {
			t.Fatal(err)
		}
		want, err := audit.Compute(b.windowInput(b.audit.window()), audit.Config{})
		b.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want.PausedCampaigns == 0 || want.Offers == 0 {
			t.Fatalf("seed %d: %d paused campaigns, %d offers: the stream must exercise both", seed, want.PausedCampaigns, want.Offers)
		}
		for i := range want.RegretByDelta {
			r := &want.RegretByDelta[i]
			if r.Utility == nil || r.Regret == nil {
				t.Fatalf("seed %d: reference row δ=%g lacks its replay", seed, r.Delta)
			}
			r.Utility, r.Regret = nil, nil
		}
		if !reflect.DeepEqual(*live, want) {
			t.Fatalf("seed %d: live report differs from the reference\n live %+v\n want %+v", seed, *live, want)
		}
		raw, err := live.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Rows []map[string]any `json:"regret_by_delta"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		for _, row := range doc.Rows {
			if _, ok := row["threshold"]; len(row) != 2 || !ok {
				t.Fatalf("seed %d: live regret_by_delta row %v, want delta and threshold only", seed, row)
			}
		}
	}
}
