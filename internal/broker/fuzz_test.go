package broker

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"muaa/internal/geo"
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
		rec := fuzzPost(t, api, "/campaigns", body)
		if rec.Code >= 500 {
			t.Fatalf("POST /campaigns %q → %d (server error on client input)", body, rec.Code)
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
		rec := fuzzPost(t, api, "/arrivals", body)
		if rec.Code >= 500 {
			t.Fatalf("POST /arrivals %q → %d (server error on client input)", body, rec.Code)
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
		rec := fuzzPost(t, api, "/campaigns/"+sanitizePath(id)+"/topup", body)
		if rec.Code >= 500 {
			t.Fatalf("POST /campaigns/%s/topup %q → %d", id, body, rec.Code)
		}
	})
}

// FuzzHTTPSurface exercises the request-hardening layer: arbitrary
// methods, paths, Content-Types and bodies (including oversized ones) must
// map to clean 4xx responses — never a 5xx, never a panic — and every 405
// must advertise Allow.
func FuzzHTTPSurface(f *testing.F) {
	f.Add("GET", "/arrivals", "application/json", `{}`)
	f.Add("DELETE", "/v1/campaigns", "", ``)
	f.Add("PUT", "/v1/topup", "application/json", `{"id":0,"amount":1}`)
	f.Add("POST", "/v1/arrivals", "text/plain", `{"capacity":1}`)
	f.Add("POST", "/arrivals", "application/x-www-form-urlencoded", `capacity=1`)
	f.Add("PATCH", "/campaigns/0/pause", "application/json", `{"paused":true}`)
	f.Add("POST", "/v1/campaigns", "application/json", `{"tags":[`+strings.Repeat("0,", 1<<17)+`0]}`)
	f.Add("OPTIONS", "/v1/stats", "", ``)
	f.Add("HEAD", "/map.svg", "", ``)
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
