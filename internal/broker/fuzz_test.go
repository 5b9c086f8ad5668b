package broker

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/workload"
)

// Fuzzers assert the HTTP layer never panics and never turns malformed
// client input into a 5xx: arbitrary bodies must come back as 4xx, and
// anything accepted must produce a well-formed JSON response. Run with
// `go test -fuzz FuzzPostArrival ./internal/broker` for a real campaign;
// under plain `go test` the seed corpus below runs as unit cases (the same
// contract internal/persist's loader fuzzers pin for file input).

func fuzzAPI(tb testing.TB) *API {
	tb.Helper()
	b, err := New(Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 50, []float64{1, 0, 0.3}); err != nil {
		tb.Fatal(err)
	}
	return NewAPI(b)
}

func fuzzPost(tb testing.TB, api *API, path, body string) *httptest.ResponseRecorder {
	tb.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, req)
	return rec
}

func FuzzPostCampaign(f *testing.F) {
	f.Add(`{"loc":{"x":0.5,"y":0.5},"radius":0.1,"budget":20,"tags":[1,0,0.2]}`)
	f.Add(`{"loc":{"x":-3,"y":9},"radius":-1,"budget":20}`)
	f.Add(`{"radius":1e308,"budget":1e308}`)
	f.Add(`{"budget":"NaN"}`)
	f.Add(`{"unknown":true}`)
	f.Add(`{nope`)
	f.Add(``)
	f.Add(`null`)
	f.Add(`[]`)
	f.Add(`[]x`)
	f.Add(`[{}] {}`)
	f.Add(`{"loc":{"x":0.5,"y":0.5},"radius":0.1,"budget":20,"tags":[1,0,0.2]}` + "\n")
	f.Fuzz(func(t *testing.T, body string) {
		api := fuzzAPI(t)
		rec := fuzzPost(t, api, "/v1/campaigns", body)
		if rec.Code >= 500 {
			t.Fatalf("POST /v1/campaigns %q → %d (server error on client input)", body, rec.Code)
		}
		if rec.Code == 201 {
			var resp campaignResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("accepted campaign returned malformed body %q: %v", rec.Body, err)
			}
			// The new campaign must be immediately readable.
			if _, err := api.broker.CampaignState(resp.ID); err != nil {
				t.Fatalf("created campaign %d not readable: %v", resp.ID, err)
			}
		}
	})
}

func FuzzPostArrival(f *testing.F) {
	f.Add(`{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`)
	f.Add(`{"loc":{"x":0.5,"y":0.5},"capacity":-1,"viewProb":0.5}`)
	f.Add(`{"viewProb":2}`)
	f.Add(`{"capacity":1,"viewProb":"NaN"}`)
	f.Add(`{"hour":-99,"capacity":1000000,"viewProb":1}`)
	f.Add(`{nope`)
	f.Add(``)
	f.Add(`null`)
	f.Add(`0`)
	f.Add(`[]x`)
	f.Add(`[{}] {}`)
	f.Add(`{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}` + "\n")
	f.Fuzz(func(t *testing.T, body string) {
		api := fuzzAPI(t)
		rec := fuzzPost(t, api, "/v1/arrivals", body)
		if rec.Code >= 500 {
			t.Fatalf("POST /v1/arrivals %q → %d (server error on client input)", body, rec.Code)
		}
		if rec.Code == 200 {
			var resp arrivalResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("accepted arrival returned malformed body %q: %v", rec.Body, err)
			}
			for _, o := range resp.Offers {
				if o.Cost <= 0 || o.AdTypeName == "" {
					t.Fatalf("accepted arrival produced malformed offer %+v", o)
				}
			}
		}
	})
}

// FuzzPostArrivalBatch pins the batch endpoint's contract under arbitrary
// input: transport-level garbage is 4xx, an accepted batch answers with
// exactly one result per submitted arrival, and every result is either an
// offers array or an error envelope — never both, never neither.
func FuzzPostArrivalBatch(f *testing.F) {
	f.Add(`[{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}]`)
	f.Add(`[{"capacity":1,"viewProb":0.5},{"capacity":-1},{"viewProb":2}]`)
	f.Add(`[]`)
	f.Add(`[{}]`)
	f.Add(`{"loc":{"x":0.5,"y":0.5}}`)
	f.Add(`[{"unknown":1}]`)
	f.Add(`[null]`)
	f.Add(`null`)
	f.Add(`[{nope`)
	f.Add(``)
	f.Add(`[]x`)
	f.Add(`[{}] {}`)
	f.Add(`[{"capacity":1,"viewProb":0.5}]` + "\n")
	f.Fuzz(func(t *testing.T, body string) {
		api := fuzzAPI(t)
		rec := fuzzPost(t, api, "/v1/arrivals:batch", body)
		if rec.Code >= 500 {
			t.Fatalf("POST /v1/arrivals:batch %q → %d (server error on client input)", body, rec.Code)
		}
		if rec.Code != 200 {
			return
		}
		var submitted []arrivalRequest
		if err := json.Unmarshal([]byte(body), &submitted); err != nil {
			t.Fatalf("batch accepted but request %q does not re-parse: %v", body, err)
		}
		var resp arrivalBatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("accepted batch returned malformed body %q: %v", rec.Body, err)
		}
		if len(resp.Results) != len(submitted) {
			t.Fatalf("batch of %d arrivals answered with %d results", len(submitted), len(resp.Results))
		}
		for i, res := range resp.Results {
			if (res.Offers == nil) == (res.Error == nil) {
				t.Fatalf("result %d is not exactly-one-of offers/error: %+v", i, res)
			}
		}
	})
}

// FuzzPostExplain hardens the debug explain endpoint: it accepts the same
// arrival shape as /arrivals but runs the read-only replay path, so the
// contract is the same — garbage is 4xx, never 5xx, and every 200 is a
// well-formed report whose candidate count matches its gathered counter.
func FuzzPostExplain(f *testing.F) {
	f.Add(`{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`)
	f.Add(`{"loc":{"x":0.5,"y":0.5},"capacity":0,"viewProb":0.5}`)
	f.Add(`{"loc":{"x":0.5,"y":0.5},"capacity":-1,"viewProb":0.5}`)
	f.Add(`{"viewProb":2}`)
	f.Add(`{"capacity":1,"viewProb":"NaN"}`)
	f.Add(`{"hour":-99,"capacity":1000000,"viewProb":1}`)
	f.Add(`{"unknown":true}`)
	f.Add(`{nope`)
	f.Add(``)
	f.Add(`null`)
	f.Add(`[]x`)
	f.Add(`[{}] {}`)
	f.Add(`{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}` + "\n")
	f.Fuzz(func(t *testing.T, body string) {
		b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Funnel: FunnelConfig{Enabled: true}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 50, []float64{1, 0, 0.3}); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/v1/debug/explain", strings.NewReader(body))
		rec := httptest.NewRecorder()
		b.ServeExplain(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("POST /v1/debug/explain %q → %d (server error on client input)", body, rec.Code)
		}
		if rec.Code == 200 {
			var rep ExplainReport
			if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
				t.Fatalf("accepted explain returned malformed body %q: %v", rec.Body, err)
			}
			if len(rep.Candidates) != rep.Gathered {
				t.Fatalf("explain report gathered=%d but carries %d candidates", rep.Gathered, len(rep.Candidates))
			}
		}
	})
}

// FuzzPostTopUp covers the path-parameter endpoints: arbitrary IDs and
// bodies must map to 4xx/404, never 5xx.
func FuzzPostTopUp(f *testing.F) {
	f.Add("0", `{"amount":5}`)
	f.Add("99", `{"amount":5}`)
	f.Add("-1", `{"amount":-5}`)
	f.Add("abc", `{}`)
	f.Add("0", `{nope`)
	f.Add("007", ``)
	f.Fuzz(func(t *testing.T, id, body string) {
		api := fuzzAPI(t)
		rec := fuzzPost(t, api, "/v1/campaigns/"+sanitizePath(id)+"/topup", body)
		if rec.Code >= 500 {
			t.Fatalf("POST /v1/campaigns/%s/topup %q → %d", id, body, rec.Code)
		}
	})
}

// FuzzHTTPSurface exercises the request-hardening layer: arbitrary
// methods, paths, Content-Types and bodies (including oversized ones) must
// map to clean 4xx responses — never a 5xx, never a panic — and every 405
// must advertise Allow.
func FuzzHTTPSurface(f *testing.F) {
	f.Add("GET", "/v1/arrivals", "application/json", `{}`)
	f.Add("DELETE", "/v1/campaigns", "", ``)
	f.Add("PUT", "/v1/campaigns/0/topup", "application/json", `{"amount":1}`)
	f.Add("POST", "/v1/arrivals", "text/plain", `{"capacity":1}`)
	f.Add("POST", "/v1/arrivals:batch", "application/x-www-form-urlencoded", `capacity=1`)
	f.Add("PATCH", "/v1/campaigns/0/pause", "application/json", `{"paused":true}`)
	f.Add("POST", "/v1/campaigns", "application/json", `{"tags":[`+strings.Repeat("0,", 1<<17)+`0]}`)
	f.Add("OPTIONS", "/v1/stats", "", ``)
	f.Add("HEAD", "/v1/map.svg", "", ``)
	f.Add("TRACE", "/no/such/route", "garbage/ct; ;;", `x`)
	f.Fuzz(func(t *testing.T, method, path, ct, body string) {
		api := fuzzAPI(t)
		req := httptest.NewRequest(sanitizeMethod(method), sanitizeFullPath(path), strings.NewReader(body))
		if ct != "" {
			req.Header.Set("Content-Type", sanitizeHeader(ct))
		}
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s %s (ct %q) → %d (server error on client input)", method, path, ct, rec.Code)
		}
		if rec.Code == 405 && rec.Header().Get("Allow") == "" {
			t.Fatalf("%s %s → 405 without an Allow header", method, path)
		}
	})
}

// sanitizeMethod maps arbitrary fuzz input onto a token NewRequest accepts.
func sanitizeMethod(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if r >= 'A' && r <= 'Z' || r >= 'a' && r <= 'z' {
			sb.WriteRune(r)
		}
	}
	if sb.Len() == 0 {
		return "GET"
	}
	return strings.ToUpper(sb.String())
}

// sanitizeFullPath keeps a fuzzed request target parseable by NewRequest
// while preserving its path structure (slashes stay).
func sanitizeFullPath(s string) string {
	var sb strings.Builder
	sb.WriteByte('/')
	for _, r := range strings.TrimPrefix(s, "/") {
		if r > 0x20 && r != '?' && r != '#' && r != '%' && r < 0x7f {
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// sanitizeHeader strips bytes that would make Header.Set panic.
func sanitizeHeader(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if r >= 0x20 && r < 0x7f {
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// sanitizePath keeps fuzzed path segments parseable by the mux (no slashes,
// spaces or control bytes that would make NewRequest panic or re-route).
func sanitizePath(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if r > 0x20 && r != '/' && r != '?' && r != '#' && r != '%' && r < 0x7f {
			sb.WriteRune(r)
		}
	}
	if sb.Len() == 0 {
		return "x"
	}
	return sb.String()
}

// fuzzDraw reads fuzz input as a stream of draws; an exhausted stream reads
// zeros, so every input decodes to some arrival sequence.
type fuzzDraw struct{ data []byte }

func (r *fuzzDraw) u8() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fuzzDraw) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(r.u8())
	}
	return v
}

// unit is a draw in [0, 1).
func (r *fuzzDraw) unit() float64 { return float64(r.u64()>>11) / (1 << 53) }

// float is any finite float64: the raw bits, with NaN and ±Inf folded onto
// the largest magnitude.
func (r *fuzzDraw) float() float64 {
	v := math.Float64frombits(r.u64())
	if math.IsNaN(v) {
		return math.MaxFloat64
	}
	if math.IsInf(v, 0) {
		return math.Copysign(math.MaxFloat64, v)
	}
	return v
}

// within folds any finite float into [0, hi], keeping the end points
// reachable.
func within(v, hi float64) float64 {
	if v = math.Abs(v); v > hi {
		v = math.Mod(v, hi)
	}
	return v
}

// arrival draws an arrival from everything validateArrival admits: locations
// in, near and absurdly far from the service area, the hour's and the view
// probability's end points, capacities up to the bound, and interest vectors
// of every length from empty to longer than any campaign's tags.
func (r *fuzzDraw) arrival() Arrival {
	var a Arrival
	switch r.u8() % 4 {
	case 0:
		a.Loc = geo.Point{X: r.unit(), Y: r.unit()}
	case 1:
		a.Loc = geo.Point{X: 3*r.unit() - 1, Y: 3*r.unit() - 1}
	default:
		a.Loc = geo.Point{X: r.float(), Y: r.float()}
	}
	switch r.u8() % 4 {
	case 0:
		a.Hour, a.ViewProb = 24*r.unit(), r.unit()
	case 1:
		a.Hour, a.ViewProb = 24, 1
	case 2:
		a.Hour, a.ViewProb = 0, r.unit()
	default:
		a.Hour, a.ViewProb = within(r.float(), 24), within(r.float(), 1)
	}
	switch sel := r.u8(); sel % 4 {
	case 0, 1:
		a.Capacity = int(sel>>2) % 6
	case 2:
		a.Capacity = int(r.u64() & math.MaxInt32)
	default:
		a.Capacity = math.MaxInt32
	}
	sel := r.u8()
	for i := 0; i < int(sel%6); i++ {
		if sel&0x80 != 0 {
			a.Interests = append(a.Interests, r.float())
		} else {
			a.Interests = append(a.Interests, r.unit())
		}
	}
	return a
}

// FuzzKernelAdmitted is the kernel's half of "input hardening at one door":
// whatever validateArrival admits, the kernel must answer without panicking
// and every answer must be feasible — offers within the capacity, one per
// campaign, only from campaigns whose disk covers the point — and the broker
// must hold its contract after every answer (CheckInvariants: no campaign
// past its budget, every gathered candidate disposed of exactly once, ...).
// The fleet mixes all four billing models, exhausted, paused, guaranteed,
// zero-radius and (on some inputs) absurd-radius campaigns, and tag vectors
// of three lengths.
func FuzzKernelAdmitted(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 1, 0x0D, 3})
	f.Add(bytes.Repeat([]byte{0x7F, 0xEF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 12))
	f.Add(bytes.Repeat([]byte{2, 0xFF, 0xEF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 3, 0x83}, 9))
	f.Add(bytes.Repeat([]byte{0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 1, 0x0D, 3}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzDraw{data: data}
		mode := r.u8()
		cfg := Config{AdTypes: workload.DefaultAdTypes(), Shards: 1 + int(mode>>1)%5,
			Funnel: FunnelConfig{Enabled: true}}
		if mode&1 != 0 {
			cfg.Pacing = 1.25
		}
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		billings := []model.Billing{
			{},
			{Model: model.BillingCPM, ReserveECPM: 1},
			{Model: model.BillingCPC, ReserveECPM: 5, EventRate: 0.1},
			{Model: model.BillingCPA, ReserveECPM: 2, EventRate: 0.05},
		}
		for i := 0; i < 14; i++ {
			spec := CampaignSpec{
				Loc:    geo.Point{X: 0.3 + 0.05*float64(i%7), Y: 0.4 + 0.2*float64(i/7)},
				Radius: 0.35, Budget: 40, Tags: []float64{1, 0.2 * float64(i%5), 0.3},
				Billing: billings[i%len(billings)],
			}
			switch i {
			case 4:
				spec.Budget = 1.5 // spent out after an offer or two
			case 5:
				spec.Tags = []float64{1, 0.5}
			case 6:
				spec.Tags = nil
			case 7:
				spec.Radius = 0
			case 8:
				spec.Guaranteed, spec.Floor, spec.Penalty = true, 0.5, 2
			case 9:
				spec.Loc, spec.Radius = geo.Point{X: 5, Y: -3}, 10 // reaches far outside the service area
			case 11:
				if mode&0x10 != 0 {
					spec.Radius = 1e300 // every arrival locks every stripe
				}
			}
			id, err := b.RegisterCampaignSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			if i == 10 {
				if err := b.SetPaused(id, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		check := func(a *Arrival, offers []Offer) {
			if len(offers) > a.Capacity {
				t.Fatalf("%+v: %d offers", *a, len(offers))
			}
			seen := make(map[int32]bool)
			for _, o := range offers {
				c, err := b.CampaignState(o.Campaign)
				if err != nil || seen[o.Campaign] {
					t.Fatalf("%+v: offer %+v (seen before: %v): %v", *a, o, seen[o.Campaign], err)
				}
				seen[o.Campaign] = true
				if !(c.Loc.Dist2(a.Loc) <= c.Radius*c.Radius) {
					t.Fatalf("%+v: campaign %d at %v radius %g does not cover the point", *a, c.ID, c.Loc, c.Radius)
				}
				if math.IsNaN(o.Utility) || o.Utility < 0 || o.Cost < 0 || o.Hold < 0 {
					t.Fatalf("%+v: offer %+v", *a, o)
				}
			}
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("%+v: %v", *a, err)
			}
		}
		for calls := 0; len(r.data) > 0 && calls < 64; calls++ {
			batch := make([]Arrival, 1+int(r.u8()%4))
			for i := range batch {
				batch[i] = r.arrival()
				if err := validateArrival(&batch[i]); err != nil {
					t.Fatalf("the generator left the door's bounds: %v", err)
				}
			}
			if len(batch) == 1 {
				offers, err := b.Arrive(batch[0])
				if err != nil {
					t.Fatal(err)
				}
				check(&batch[0], offers)
				continue
			}
			for i, res := range b.ArriveBatch(batch) {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				check(&batch[i], res.Offers)
			}
		}
	})
}
