package broker

// Explain-replay tests: the report must predict an immediately-following
// Arrive exactly (offers field for field, on the legacy and both slate
// paths), must be provably read-only (golden replay transcripts stay
// byte-identical with an explain interleaved before every arrival), and the
// HTTP surface must honor the API's envelope contract.

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/obs"
	"muaa/internal/pacing"
	"muaa/internal/stats"
	"muaa/internal/workload"
)

// explainConserved asserts every candidate has a disposition and the
// dispositions partition the gathered set, mirroring the funnel invariant.
func explainConserved(t *testing.T, rep *ExplainReport) {
	t.Helper()
	if len(rep.Candidates) != rep.Gathered {
		t.Fatalf("report has %d candidates, gathered %d", len(rep.Candidates), rep.Gathered)
	}
	offered := 0
	for i := range rep.Candidates {
		c := &rep.Candidates[i]
		known := false
		for _, n := range dispositionNames {
			if c.Disposition == n {
				known = true
				break
			}
		}
		if !known {
			t.Fatalf("candidate %d has unknown disposition %q", c.Campaign, c.Disposition)
		}
		if c.Disposition == dispositionNames[dispOffered] {
			offered++
			if c.Offer == nil {
				t.Fatalf("offered candidate %d has no offer", c.Campaign)
			}
		} else if c.Offer != nil {
			t.Fatalf("candidate %d disposed %q but carries an offer", c.Campaign, c.Disposition)
		}
	}
	if offered != rep.Offered {
		t.Fatalf("report Offered %d but %d candidates marked offered", rep.Offered, offered)
	}
}

// matchPrediction asserts the committed offers equal the report's predicted
// winners, in slot order, field for field.
func matchPrediction(t *testing.T, op int, rep *ExplainReport, offers []Offer) {
	t.Helper()
	if rep.Offered != len(offers) {
		t.Fatalf("op %d: explain predicted %d offers, arrive produced %d\nreport: %+v\noffers: %+v",
			op, rep.Offered, len(offers), rep, offers)
	}
	bySlot := make([]*ExplainCandidate, len(offers))
	for i := range rep.Candidates {
		c := &rep.Candidates[i]
		if c.Offer == nil {
			continue
		}
		if c.Offer.Slot < 0 || c.Offer.Slot >= len(offers) || bySlot[c.Offer.Slot] != nil {
			t.Fatalf("op %d: bad or duplicate slot %d (campaign %d)", op, c.Offer.Slot, c.Campaign)
		}
		bySlot[c.Offer.Slot] = c
	}
	for slot, o := range offers {
		c := bySlot[slot]
		if c == nil {
			t.Fatalf("op %d: no predicted winner for slot %d", op, slot)
		}
		eo := c.Offer
		wantModel := ""
		if o.Model != model.BillingFixed {
			wantModel = o.Model.String()
		}
		if c.Campaign != o.Campaign || eo.AdType != o.AdType ||
			eo.Utility != o.Utility || eo.Efficiency != o.Efficiency ||
			eo.Cost != o.Cost || eo.ChargeECPM != o.ChargeECPM ||
			eo.Hold != o.Hold || eo.Model != wantModel {
			t.Fatalf("op %d slot %d: predicted {c=%d %+v}, committed %+v",
				op, slot, c.Campaign, eo, o)
		}
	}
}

// explainSelfConsistent asserts the report's own γ summary reproduces the
// threshold its first walked candidate saw: gamma_min/e · g^delta, then the
// boost and relief factors, in the kernel's operation order — exact, not
// approximate. (Fails if G is the unclamped reporting value.)
func explainSelfConsistent(t *testing.T, op int, rep *ExplainReport) {
	t.Helper()
	for i := range rep.Candidates {
		c := &rep.Candidates[i]
		if len(c.Bids) == 0 {
			continue // filtered before the walk
		}
		want := rep.GammaMin / math.E * math.Pow(rep.G, c.Delta)
		if rep.Boost != 1 {
			want *= rep.Boost
		}
		if c.Relief {
			want *= guaranteeRelief
		}
		if c.Threshold != want {
			t.Fatalf("op %d: candidate %d threshold %v, but gamma_min %v / e · g %v ^ delta %v · boost %v (relief %v) = %v",
				op, c.Campaign, c.Threshold, rep.GammaMin, rep.G, c.Delta, rep.Boost, c.Relief, want)
		}
		return
	}
}

// funnelRows reads the funnel row of every candidate in the report.
func funnelRows(t *testing.T, b *Broker, rep *ExplainReport) []FunnelCounts {
	t.Helper()
	rows := make([]FunnelCounts, len(rep.Candidates))
	for i := range rep.Candidates {
		fc, err := b.CampaignFunnel(rep.Candidates[i].Campaign)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = fc
	}
	return rows
}

// matchFunnel asserts the arrival that followed the report moved each
// candidate's funnel row by exactly one event, in the disposition the report
// predicted for it.
func matchFunnel(t *testing.T, op int, b *Broker, rep *ExplainReport, before []FunnelCounts) {
	t.Helper()
	after := funnelRows(t, b, rep)
	for i := range rep.Candidates {
		c := &rep.Candidates[i]
		if after[i].Gathered != before[i].Gathered+1 {
			t.Fatalf("op %d: campaign %d gathered moved %d → %d, want +1",
				op, c.Campaign, before[i].Gathered, after[i].Gathered)
		}
		was, got := before[i].dispositions(), after[i].dispositions()
		for d := range got {
			want := was[d]
			if dispositionNames[d] == c.Disposition {
				want++
			}
			if got[d] != want {
				t.Fatalf("op %d: campaign %d explained as %q, but funnel %s moved %d → %d",
					op, c.Campaign, c.Disposition, dispositionNames[d], was[d], got[d])
			}
		}
	}
}

// TestExplainPredictsArrive replays seeded mixed traffic and, before every
// arrival, asks Explain for its prediction: the immediately-following Arrive
// must commit exactly the predicted offers and move every candidate's funnel
// row by exactly the predicted disposition — explain and funnel are the same
// kernel events, so they must agree candidate by candidate. Covers the trim
// resolver plain, paced, with fixed g, forced onto the auction path and under
// single-slot auction; the MCKP slots resolver; a pacing controller (boost
// and allowance caps); and guaranteed campaigns behind their floor (relief).
func TestExplainPredictsArrive(t *testing.T) {
	type tcase struct {
		name string
		cfg  Config
		load workload.BrokerLoadConfig
		// shape, when set, edits campaign i's spec before registration.
		shape func(i int, s *CampaignSpec)
		// tick, when set, runs before the n-th arrival's explain.
		tick func(b *Broker, n int)
		// covers, when set, must hold for at least one report: proof the case
		// reached the path it is named for.
		covers func(rep *ExplainReport) bool
	}
	anyCandidate := func(rep *ExplainReport, f func(*ExplainCandidate) bool) bool {
		for i := range rep.Candidates {
			if f(&rep.Candidates[i]) {
				return true
			}
		}
		return false
	}
	ctl := pacing.Default()
	cases := []tcase{
		{name: "legacy", cfg: Config{AdTypes: workload.DefaultAdTypes()},
			load: workload.DefaultBrokerLoadConfig(24, 1500, 11)},
		{name: "paced", cfg: Config{AdTypes: workload.DefaultAdTypes(), Pacing: 1.25},
			load: workload.DefaultBrokerLoadConfig(24, 1500, 12)},
		{name: "fixed_g", cfg: Config{AdTypes: workload.DefaultAdTypes(), G: 8},
			load: workload.DefaultBrokerLoadConfig(24, 1500, 13)},
		{name: "slate_single", cfg: Config{AdTypes: workload.DefaultAdTypes()},
			load: func() workload.BrokerLoadConfig {
				c := workload.BilledBrokerLoadConfig(24, 1500, 14)
				c.Capacity = stats.Range{Lo: 1, Hi: 1}
				return c
			}()},
		{name: "slate_slots", cfg: Config{AdTypes: workload.DefaultAdTypes()},
			load: func() workload.BrokerLoadConfig {
				c := workload.BilledBrokerLoadConfig(24, 1500, 15)
				c.Capacity = stats.Range{Lo: 2, Hi: 4}
				return c
			}()},
		// Config.Slate on an all-fixed fleet: trim at capacity 1, the slot
		// solver at 2–4, catalog prices throughout.
		{name: "forced_slate", cfg: Config{AdTypes: workload.DefaultAdTypes(), Slate: true},
			load: workload.DefaultBrokerLoadConfig(96, 1500, 16),
			covers: func(rep *ExplainReport) bool {
				return rep.Slate && rep.Offered > 1 && anyCandidate(rep, func(c *ExplainCandidate) bool {
					return c.Disposition == dispositionNames[dispDisplaced]
				})
			}},
		// A pacing controller mid-flight: every 150 arrivals an epoch swings
		// the boost and puts even campaigns under a tight spend-rate cap.
		{name: "controller", cfg: Config{AdTypes: workload.DefaultAdTypes(), Controller: &ctl},
			load: workload.DefaultBrokerLoadConfig(24, 1500, 17),
			tick: func(b *Broker, n int) {
				if n%150 != 75 {
					return
				}
				dec := pacing.Decision{Boost: 1.75}
				if n%300 == 75 {
					dec.Boost = 0.6
				}
				for id := int32(0); id < 24; id += 2 {
					dec.Rates = append(dec.Rates, pacing.CampaignRate{ID: id, Rate: 0.02})
				}
				b.applyDecision(dec)
			},
			covers: func(rep *ExplainReport) bool {
				return rep.Boost != 1 && anyCandidate(rep, func(c *ExplainCandidate) bool {
					return c.Disposition == dispositionNames[dispUnaffordable]
				})
			}},
		// Guaranteed campaigns that owe 90% of budget by end of day are behind
		// their pro-rated floor from the first arrival: relieved thresholds.
		{name: "relief", cfg: Config{AdTypes: workload.DefaultAdTypes()},
			load: workload.DefaultBrokerLoadConfig(24, 1500, 18),
			shape: func(i int, s *CampaignSpec) {
				if i%3 == 0 {
					s.Guaranteed, s.Floor, s.Penalty = true, 0.9, 1
				}
			},
			covers: func(rep *ExplainReport) bool {
				return rep.GammaMax > 0 && anyCandidate(rep, func(c *ExplainCandidate) bool {
					return c.Relief && c.Offer != nil
				})
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Funnel.Enabled = true
			b, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			specs, ops, err := workload.BrokerLoad(tc.load)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range specs {
				spec := CampaignSpec{Loc: c.Loc, Radius: c.Radius, Budget: c.Budget,
					Tags: c.Tags, Billing: c.Billing}
				if tc.shape != nil {
					tc.shape(i, &spec)
				}
				if _, err := b.RegisterCampaignSpec(spec); err != nil {
					t.Fatal(err)
				}
			}
			var open []uint64
			arrivals, slate, covered := 0, false, tc.covers == nil
			for i, op := range ops {
				if op.Kind != workload.OpArrival {
					applyBilledOp(t, b, op, &open)
					continue
				}
				if tc.tick != nil {
					tc.tick(b, arrivals)
				}
				a := Arrival{Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb,
					Interests: op.Interests, Hour: op.Hour}
				rep, err := b.Explain(a)
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				explainConserved(t, rep)
				explainSelfConsistent(t, i, rep)
				before := funnelRows(t, b, rep)
				offers, err := b.Arrive(a)
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				matchPrediction(t, i, rep, offers)
				matchFunnel(t, i, b, rep, before)
				for _, o := range offers {
					if o.ID != 0 {
						open = append(open, o.ID)
					}
				}
				arrivals++
				slate = slate || rep.Slate
				covered = covered || tc.covers(rep)
			}
			if arrivals == 0 {
				t.Fatal("load produced no arrivals")
			}
			if wantSlate := tc.load.CPMFrac > 0 || tc.cfg.Slate; slate != wantSlate {
				t.Fatalf("slate path = %v, want %v", slate, wantSlate)
			}
			if !covered {
				t.Fatal("no report reached the path this case is named for")
			}
		})
	}
}

// TestExplainReportsBaseInEffect pins ExplainReport.G to the base the walk
// used, where it differs from the reporting-only Stats.G: after a single
// observed efficiency γ_max == γ_min, so Stats.G is still 0 while admission
// runs on the 2e floor.
func TestExplainReportsBaseInEffect(t *testing.T) {
	b, err := New(Config{AdTypes: []model.AdType{{Name: "banner", Cost: 1, Effect: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 50, []float64{1, 0, 0.3}); err != nil {
		t.Fatal(err)
	}
	a := Arrival{Loc: geo.Point{X: 0.49, Y: 0.51}, Capacity: 1, ViewProb: 0.7, Interests: []float64{0.9, 0.1, 0.3}}
	if offers, err := b.Arrive(a); err != nil || len(offers) != 1 {
		t.Fatalf("seed arrival: %v, %v", offers, err)
	}
	st := b.Stats()
	if st.GammaMin != st.GammaMax || st.GammaMax == 0 || st.G != 0 {
		t.Fatalf("stats after one observation = %+v, want γ_min == γ_max > 0 and the unclamped G = 0", st)
	}
	rep, err := b.Explain(a)
	if err != nil {
		t.Fatal(err)
	}
	if rep.G != 2*math.E {
		t.Errorf("report g = %v, want the 2e floor in effect", rep.G)
	}
	if len(rep.Candidates) != 1 || rep.Candidates[0].Delta == 0 || rep.Candidates[0].Threshold == 0 {
		t.Fatalf("report = %+v, want one walked candidate with spend behind it", rep)
	}
	explainSelfConsistent(t, 0, rep)
}

// TestReplayMatchesGoldenExplainInterleaved is the read-only pin: replaying
// the golden stream with an Explain of every arrival injected immediately
// before its Arrive must leave the transcript byte-identical — explain
// commits no spend, no γ observation, no counter, no funnel attribution.
func TestReplayMatchesGoldenExplainInterleaved(t *testing.T) {
	for _, tc := range []struct {
		name   string
		golden string
		cfg    Config
	}{
		{"default", "replay_default.golden", Config{AdTypes: workload.DefaultAdTypes()}},
		{"paced", "replay_paced.golden", Config{AdTypes: workload.DefaultAdTypes(), Pacing: 1.25}},
		{"instrumented_funnel", "replay_default.golden",
			Config{AdTypes: workload.DefaultAdTypes(), Metrics: obs.NewRegistry(),
				Funnel: FunnelConfig{Enabled: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := replayTranscriptVia(t, tc.cfg, 32, 3000, 42,
				func(b *Broker) func(Arrival) ([]Offer, error) {
					return func(a Arrival) ([]Offer, error) {
						if _, err := b.Explain(a); err != nil {
							return nil, err
						}
						return b.Arrive(a)
					}
				})
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			if got != string(want) {
				t.Fatalf("interleaved explain changed the replay transcript (%d vs %d bytes, first diff at byte %d)",
					len(got), len(want), firstDiff(got, string(want)))
			}
		})
	}
}

func TestExplainValidationAndEdges(t *testing.T) {
	b := newTestBroker(t)
	if _, err := b.Explain(Arrival{Capacity: -1, ViewProb: 0.5}); err == nil {
		t.Error("negative capacity must be rejected")
	}
	if _, err := b.Explain(Arrival{Capacity: 1, ViewProb: 1.5}); err == nil {
		t.Error("view probability > 1 must be rejected")
	}
	rep, err := b.Explain(Arrival{Capacity: 0, ViewProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gathered != 0 || rep.Offered != 0 || len(rep.Candidates) != 0 {
		t.Errorf("capacity-0 report = %+v, want empty", rep)
	}
	// No campaigns anywhere: an empty, well-formed report.
	rep, err = b.Explain(Arrival{Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 2, ViewProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gathered != 0 || rep.Slate {
		t.Errorf("empty-fleet report = %+v", rep)
	}
}

// TestServeExplainHTTP pins the endpoint contract: POST-only with an Allow
// header, the shared decode funnel (strict fields, content type, body cap),
// and a well-formed report on success.
func TestServeExplainHTTP(t *testing.T) {
	b := funnelBroker(t, Config{AdTypes: workload.DefaultAdTypes()})
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 50, []float64{1, 0, 0.3}); err != nil {
		t.Fatal(err)
	}
	// Mounted as muaa-serve's debug listener mounts them.
	mux := http.NewServeMux()
	mux.Handle("/v1/debug/explain", obs.MethodHandler(map[string]http.HandlerFunc{http.MethodPost: b.ServeExplain}))
	mux.Handle("/v1/debug/campaigns/{id}/funnel", obs.MethodHandler(map[string]http.HandlerFunc{http.MethodGet: b.ServeCampaignFunnel}))

	do := func(method, path, ctype, body string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec
	}
	wantEnvelope := func(rec *httptest.ResponseRecorder, status int, code string) {
		t.Helper()
		if rec.Code != status {
			t.Fatalf("status %d, want %d (body %s)", rec.Code, status, rec.Body)
		}
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("non-JSON error body %q: %v", rec.Body, err)
		}
		if env.Error.Code != code {
			t.Fatalf("error code %q, want %q", env.Error.Code, code)
		}
	}

	good := `{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`
	rec := do("POST", "/v1/debug/explain", "application/json", good)
	if rec.Code != 200 {
		t.Fatalf("valid explain → %d: %s", rec.Code, rec.Body)
	}
	var rep ExplainReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("malformed report: %v", err)
	}
	if rep.Gathered != 1 || len(rep.Candidates) != 1 {
		t.Fatalf("report = %+v, want the one covering campaign", rep)
	}

	rec = do("GET", "/v1/debug/explain", "", "")
	if rec.Code != 405 || rec.Header().Get("Allow") != "POST" {
		t.Errorf("GET explain → %d Allow=%q, want 405 with Allow: POST", rec.Code, rec.Header().Get("Allow"))
	}
	wantEnvelope(do("POST", "/v1/debug/explain", "text/plain", good), 415, "unsupported_media_type")
	wantEnvelope(do("POST", "/v1/debug/explain", "application/json", `{"unknown":1}`), 400, "bad_request")
	wantEnvelope(do("POST", "/v1/debug/explain", "application/json", `{"capacity":-1,"viewProb":0.5}`), 400, "bad_request")
	wantEnvelope(do("POST", "/v1/debug/explain", "application/json", `{"capacity":1,"viewProb":0.5,"hour":99}`), 400, "bad_request")
	wantEnvelope(do("POST", "/v1/debug/explain", "application/json",
		`{"capacity":1,`+strings.Repeat(" ", 1<<20)+`"viewProb":0.5}`), 413, "payload_too_large")

	// Funnel route: success, unknown id, bad id, method gate.
	rec = do("GET", "/v1/debug/campaigns/0/funnel", "", "")
	if rec.Code != 200 {
		t.Fatalf("funnel GET → %d: %s", rec.Code, rec.Body)
	}
	var fc FunnelCounts
	if err := json.Unmarshal(rec.Body.Bytes(), &fc); err != nil || fc.Campaign != 0 {
		t.Fatalf("funnel body %q: %v", rec.Body, err)
	}
	wantEnvelope(do("GET", "/v1/debug/campaigns/99/funnel", "", ""), 404, "not_found")
	wantEnvelope(do("GET", "/v1/debug/campaigns/zzz/funnel", "", ""), 400, "bad_request")
	rec = do("POST", "/v1/debug/campaigns/0/funnel", "application/json", "{}")
	if rec.Code != 405 || rec.Header().Get("Allow") != "GET, HEAD" {
		t.Errorf("POST funnel → %d Allow=%q, want 405 with Allow: GET, HEAD", rec.Code, rec.Header().Get("Allow"))
	}
}
