package broker

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"muaa/internal/workload"
)

func newTestServer(t *testing.T) (*httptest.Server, *Broker) {
	t.Helper()
	b, err := New(Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPI(b))
	t.Cleanup(srv.Close)
	return srv, b
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPCampaignLifecycle(t *testing.T) {
	srv, _ := newTestServer(t)

	resp := postJSON(t, srv.URL+"/v1/campaigns", campaignRequest{
		Loc: pointDTO{0.5, 0.5}, Radius: 0.2, Budget: 10, Tags: []float64{1, 0},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	created := decodeBody[campaignResponse](t, resp)

	// Read the state back.
	getResp, err := http.Get(fmt.Sprintf("%s/v1/campaigns/%d", srv.URL, created.ID))
	if err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("get status %d", getResp.StatusCode)
	}
	state := decodeBody[campaignStateResponse](t, getResp)
	if state.Budget != 10 || state.Remaining != 10 {
		t.Errorf("state %+v", state)
	}

	// Top up and pause.
	resp = postJSON(t, fmt.Sprintf("%s/v1/campaigns/%d/topup", srv.URL, created.ID), topUpRequest{Amount: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topup status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, fmt.Sprintf("%s/v1/campaigns/%d/pause", srv.URL, created.ID), pauseRequest{Paused: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pause status %d", resp.StatusCode)
	}
	resp.Body.Close()

	getResp, _ = http.Get(fmt.Sprintf("%s/v1/campaigns/%d", srv.URL, created.ID))
	state = decodeBody[campaignStateResponse](t, getResp)
	if state.Budget != 15 || !state.Paused {
		t.Errorf("after topup+pause: %+v", state)
	}
}

func TestHTTPArrivalFlow(t *testing.T) {
	srv, _ := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/campaigns", campaignRequest{
		Loc: pointDTO{0.5, 0.5}, Radius: 0.2, Budget: 10, Tags: []float64{1, 0},
	})
	resp.Body.Close()

	resp = postJSON(t, srv.URL+"/v1/arrivals", arrivalRequest{
		Loc: pointDTO{0.5, 0.51}, Capacity: 2, ViewProb: 0.8,
		Interests: []float64{0.9, 0.1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arrival status %d", resp.StatusCode)
	}
	out := decodeBody[arrivalResponse](t, resp)
	if len(out.Offers) != 1 {
		t.Fatalf("offers %+v", out.Offers)
	}
	if out.Offers[0].AdTypeName == "" || out.Offers[0].Cost <= 0 {
		t.Errorf("offer DTO incomplete: %+v", out.Offers[0])
	}

	statsResp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody[Stats](t, statsResp)
	if stats.Arrivals != 1 || stats.OffersPushed != 1 {
		t.Errorf("stats %+v", stats)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, _ := newTestServer(t)

	// Malformed body.
	resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown fields are rejected (catches client typos).
	resp, err = http.Post(srv.URL+"/v1/arrivals", "application/json",
		bytes.NewReader([]byte(`{"capcity": 2}`)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown campaign → 404.
	resp = postJSON(t, srv.URL+"/v1/campaigns/99/topup", topUpRequest{Amount: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown campaign status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Bad path id.
	resp = postJSON(t, srv.URL+"/v1/campaigns/abc/topup", topUpRequest{Amount: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Invalid arrival payload.
	resp = postJSON(t, srv.URL+"/v1/arrivals", arrivalRequest{Capacity: -1, ViewProb: 0.5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid arrival status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Every client value is bounded at the door: an hour outside the day, and
	// a coordinate or interest too large for a float64 (JSON has no other way
	// to spell a non-finite number), are 400s on the single route…
	for _, body := range []string{
		`{"loc":{"x":0.5,"y":0.5},"capacity":1,"viewProb":0.5,"hour":99}`,
		`{"loc":{"x":0.5,"y":0.5},"capacity":1,"viewProb":0.5,"hour":-1}`,
		`{"loc":{"x":1e999,"y":0.5},"capacity":1,"viewProb":0.5,"hour":12}`,
		`{"loc":{"x":0.5,"y":0.5},"capacity":1,"viewProb":0.5,"interests":[1,-1e999],"hour":12}`,
	} {
		resp, err = http.Post(srv.URL+"/v1/arrivals", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		wantEnvelope(t, resp, http.StatusBadRequest, "bad_request")
		// …and on the batch route, where an hour is a per-element rejection
		// and an unrepresentable number fails the whole body's decode.
		resp, err = http.Post(srv.URL+"/v1/arrivals:batch", "application/json", strings.NewReader("["+body+"]"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			out := decodeBody[arrivalBatchResponse](t, resp)
			if len(out.Results) != 1 || out.Results[0].Error == nil || out.Results[0].Error.Code != "bad_request" {
				t.Errorf("batch element %s not rejected: %+v", body, out.Results)
			}
			continue
		}
		wantEnvelope(t, resp, http.StatusBadRequest, "bad_request")
	}
}

func TestHTTPConcurrentArrivals(t *testing.T) {
	srv, b := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/campaigns", campaignRequest{
		Loc: pointDTO{0.5, 0.5}, Radius: 0.3, Budget: 50, Tags: []float64{1, 0},
	})
	resp.Body.Close()

	const n = 20
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			r := postJSON(t, srv.URL+"/v1/arrivals", arrivalRequest{
				Loc: pointDTO{0.5, 0.52}, Capacity: 1, ViewProb: 0.8,
				Interests: []float64{0.9, 0.1},
			})
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				done <- fmt.Errorf("status %d", r.StatusCode)
				return
			}
			done <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.CampaignState(0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Spent > c.Budget+1e-9 {
		t.Fatalf("concurrent arrivals overspent the budget: %g > %g", c.Spent, c.Budget)
	}
	if b.Stats().Arrivals != n {
		t.Errorf("arrivals = %d, want %d", b.Stats().Arrivals, n)
	}
}

func TestHTTPListCampaigns(t *testing.T) {
	srv, _ := newTestServer(t)
	for i := 0; i < 3; i++ {
		resp := postJSON(t, srv.URL+"/v1/campaigns", campaignRequest{
			Loc: pointDTO{0.1 * float64(i), 0.5}, Radius: 0.1, Budget: float64(5 + i),
		})
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[[]campaignStateResponse](t, resp)
	if len(list) != 3 {
		t.Fatalf("listed %d campaigns, want 3", len(list))
	}
	for i, c := range list {
		if c.ID != int32(i) || c.Budget != float64(5+i) {
			t.Errorf("campaign %d state %+v", i, c)
		}
	}
}

func TestHTTPMap(t *testing.T) {
	srv, _ := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/campaigns", campaignRequest{
		Loc: pointDTO{0.5, 0.5}, Radius: 0.2, Budget: 10,
	})
	resp.Body.Close()
	mapResp, err := http.Get(srv.URL + "/v1/map.svg")
	if err != nil {
		t.Fatal(err)
	}
	defer mapResp.Body.Close()
	if mapResp.StatusCode != http.StatusOK {
		t.Fatalf("map status %d", mapResp.StatusCode)
	}
	if ct := mapResp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(mapResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("<svg")) || !bytes.Contains(body, []byte("1 campaigns")) {
		t.Errorf("map content:\n%s", body[:min(200, len(body))])
	}
}

// errEnvelope mirrors the uniform error envelope for assertions.
type errEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func wantEnvelope(t *testing.T, resp *http.Response, status int, code string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Errorf("%s %s: status %d, want %d", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, status)
	}
	env := decodeBody[errEnvelope](t, resp)
	if env.Error.Code != code || env.Error.Message == "" {
		t.Errorf("%s: envelope %+v, want code %q with non-empty message", resp.Request.URL.Path, env, code)
	}
}

// TestV1OnlySurface pins the one spelling: every /v1 route works, and the
// same path without /v1 — and the retired flat top-up — is the enveloped 404.
func TestV1OnlySurface(t *testing.T) {
	srv, _ := newTestServer(t)

	resp := postJSON(t, srv.URL+"/v1/campaigns", campaignRequest{
		Loc: pointDTO{0.5, 0.5}, Radius: 0.2, Budget: 10, Tags: []float64{1, 0},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/campaigns status %d", resp.StatusCode)
	}
	created := decodeBody[campaignResponse](t, resp)

	resp = postJSON(t, srv.URL+fmt.Sprintf("/v1/campaigns/%d/topup", created.ID), topUpRequest{Amount: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/campaigns/{id}/topup status %d", resp.StatusCode)
	}
	resp.Body.Close()
	wantEnvelope(t, postJSON(t, srv.URL+"/v1/topup", map[string]float64{"id": 0, "amount": 5}),
		http.StatusNotFound, "not_found")

	getResp, err := http.Get(srv.URL + "/v1/campaigns/0")
	if err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/campaigns/0 status %d", getResp.StatusCode)
	}
	state := decodeBody[campaignStateResponse](t, getResp)
	if state.Budget != 15 {
		t.Errorf("GET /v1/campaigns/0 budget %g, want 15", state.Budget)
	}
	resp = postJSON(t, srv.URL+"/v1/arrivals", arrivalRequest{
		Loc: pointDTO{0.5, 0.51}, Capacity: 1, ViewProb: 0.8, Interests: []float64{0.9, 0.1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/arrivals status %d", resp.StatusCode)
	}
	resp.Body.Close()
	statsResp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody[Stats](t, statsResp)
	if stats.Arrivals != 1 || stats.Campaigns != 1 {
		t.Errorf("GET /v1/stats: %+v", stats)
	}
	mapResp, err := http.Get(srv.URL + "/v1/map.svg")
	if err != nil {
		t.Fatal(err)
	}
	mapResp.Body.Close()
	if mapResp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/map.svg status %d", mapResp.StatusCode)
	}
	for _, path := range []string{"/campaigns/0", "/stats", "/map.svg", "/arrivals"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		wantEnvelope(t, resp, http.StatusNotFound, "not_found")
	}
}

// TestErrorEnvelope asserts the uniform {"error":{code,message}} shape for
// every error class the surface produces.
func TestErrorEnvelope(t *testing.T) {
	srv, _ := newTestServer(t)

	resp, err := http.Get(srv.URL + "/v1/campaigns/999")
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, resp, http.StatusNotFound, "not_found")
	resp, err = http.Post(srv.URL+"/v1/arrivals", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, resp, http.StatusBadRequest, "bad_request")
	// Unrouted paths fall through to the enveloped 404.
	resp, err = http.Get(srv.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, resp, http.StatusNotFound, "not_found")
}

// TestMethodNotAllowed: wrong methods get 405 with an Allow header and the
// uniform envelope; a GET route advertises HEAD beside it.
func TestMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodDelete, "/v1/arrivals", "POST"},
		{http.MethodGet, "/v1/arrivals", "POST"},
		{http.MethodPut, "/v1/campaigns", "GET, HEAD, POST"},
		{http.MethodPost, "/v1/stats", "GET, HEAD"},
		{http.MethodDelete, "/v1/campaigns/0", "GET, HEAD"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		wantEnvelope(t, resp, http.StatusMethodNotAllowed, "method_not_allowed")
	}
}

// TestUnsupportedMediaType: a non-JSON Content-Type is rejected with 415;
// a missing Content-Type and JSON with parameters are accepted.
func TestUnsupportedMediaType(t *testing.T) {
	srv, _ := newTestServer(t)
	body := `{"loc":{"x":0.5,"y":0.5},"capacity":1,"viewProb":0.5}`

	for _, ct := range []string{"text/plain", "application/x-www-form-urlencoded", "application/xml"} {
		resp, err := http.Post(srv.URL+"/v1/arrivals", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		wantEnvelope(t, resp, http.StatusUnsupportedMediaType, "unsupported_media_type")
	}
	for _, ct := range []string{"", "application/json", "application/json; charset=utf-8"} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/arrivals", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("Content-Type %q: status %d, want 200", ct, resp.StatusCode)
		}
	}
}

// TestOversizedBody: POST bodies beyond the 1 MiB cap are cut off with a
// 413 envelope instead of being read to the end.
func TestOversizedBody(t *testing.T) {
	api := fuzzAPI(t)
	huge := "{\"tags\":[" + strings.Repeat("0,", 1<<19) + "0]}"
	rec := fuzzPost(t, api, "/v1/campaigns", huge)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /v1/campaigns with %d bytes: status %d, want 413", len(huge), rec.Code)
	}
	var env errEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "payload_too_large" {
		t.Errorf("POST /v1/campaigns: envelope %s (err %v)", rec.Body.Bytes(), err)
	}
}

// TestJSONContentType is the regression test for the explicit JSON content
// type: every JSON endpoint — success and error paths alike — must declare
// `application/json; charset=utf-8` with nosniff, so scrapers and the
// docs/OPERATIONS.md curl examples can rely on it.
func TestJSONContentType(t *testing.T) {
	srv, _ := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/campaigns", campaignRequest{
		Loc: pointDTO{0.5, 0.5}, Radius: 0.2, Budget: 10, Tags: []float64{1, 0},
	})
	resp.Body.Close()

	checks := []struct {
		name       string
		get        string
		wantStatus int
	}{
		{"stats", "/v1/stats", http.StatusOK},
		{"campaign list", "/v1/campaigns", http.StatusOK},
		{"campaign state", "/v1/campaigns/0", http.StatusOK},
		{"error body", "/v1/campaigns/999", http.StatusNotFound},
	}
	for _, tc := range checks {
		resp, err := http.Get(srv.URL + tc.get)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("%s: Content-Type = %q, want explicit application/json; charset=utf-8", tc.name, ct)
		}
		if ns := resp.Header.Get("X-Content-Type-Options"); ns != "nosniff" {
			t.Errorf("%s: X-Content-Type-Options = %q, want nosniff", tc.name, ns)
		}
	}

	// POST responses flow through the same funnel.
	resp = postJSON(t, srv.URL+"/v1/arrivals", arrivalRequest{
		Loc: pointDTO{0.5, 0.5}, Capacity: 1, ViewProb: 0.5, Interests: []float64{1, 0},
	})
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("POST /arrivals: Content-Type = %q", ct)
	}
}

// TestPostArrivalBatch covers the batch endpoint end to end: a mixed batch
// answers 200 with index-aligned results (offers for accepted arrivals,
// error envelopes for rejected ones), an empty array answers an empty
// results array, and an over-long array is rejected whole with 400.
func TestPostArrivalBatch(t *testing.T) {
	srv, _ := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/campaigns", campaignRequest{
		Loc: pointDTO{0.5, 0.5}, Radius: 0.2, Budget: 100, Tags: []float64{1, 0, 1},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, srv.URL+"/v1/arrivals:batch", []arrivalRequest{
		{Loc: pointDTO{0.5, 0.5}, Capacity: 2, ViewProb: 0.8, Interests: []float64{1, 0.5, 1}, Hour: 12},
		{Capacity: -1},
		{Loc: pointDTO{0.95, 0.05}, Capacity: 1, ViewProb: 0.5, Interests: []float64{1, 0, 1}, Hour: 3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	out := decodeBody[arrivalBatchResponse](t, resp)
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if out.Results[0].Offers == nil || len(*out.Results[0].Offers) == 0 {
		t.Fatalf("in-range arrival got no offers: %+v", out.Results[0])
	}
	for _, o := range *out.Results[0].Offers {
		if o.AdTypeName == "" || o.Cost <= 0 {
			t.Fatalf("malformed offer %+v", o)
		}
	}
	if out.Results[1].Error == nil || out.Results[1].Error.Code != "bad_request" ||
		!strings.Contains(out.Results[1].Error.Message, "capacity") {
		t.Fatalf("rejected arrival not surfaced: %+v", out.Results[1])
	}
	if out.Results[1].Offers != nil {
		t.Fatalf("rejected arrival carries offers: %+v", out.Results[1])
	}
	if out.Results[2].Error != nil || out.Results[2].Offers == nil || len(*out.Results[2].Offers) != 0 {
		t.Fatalf("far-away arrival should have empty offers: %+v", out.Results[2])
	}

	// Empty array: accepted, empty results.
	resp = postJSON(t, srv.URL+"/v1/arrivals:batch", []arrivalRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty batch status %d", resp.StatusCode)
	}
	if out := decodeBody[arrivalBatchResponse](t, resp); len(out.Results) != 0 {
		t.Fatalf("empty batch answered %d results", len(out.Results))
	}

	// Over the element cap: rejected whole.
	big := make([]arrivalRequest, maxBatchArrivals+1)
	resp = postJSON(t, srv.URL+"/v1/arrivals:batch", big)
	wantEnvelope(t, resp, http.StatusBadRequest, "bad_request")

	// An object instead of an array is a transport-level 400.
	resp = postJSON(t, srv.URL+"/v1/arrivals:batch", map[string]int{"capacity": 1})
	wantEnvelope(t, resp, http.StatusBadRequest, "bad_request")
}

// TestRoutesEnumeration pins the Routes accessor: every registered /v1 path
// is reported exactly once and serves something other than the catch-all
// 404 (the docs coverage test builds on this list).
func TestRoutesEnumeration(t *testing.T) {
	srv, b := newTestServer(t)
	api := NewAPI(b)
	routes := api.Routes()
	want := []string{
		"/v1/campaigns", "/v1/campaigns/{id}", "/v1/campaigns/{id}/billing",
		"/v1/campaigns/{id}/topup", "/v1/campaigns/{id}/pause",
		"/v1/arrivals", "/v1/arrivals:batch", "/v1/events", "/v1/stats",
		"/v1/map.svg",
	}
	if len(routes) != len(want) {
		t.Fatalf("Routes() = %v, want %v", routes, want)
	}
	seen := map[string]bool{}
	for _, r := range routes {
		if seen[r] {
			t.Fatalf("duplicate route %q", r)
		}
		seen[r] = true
	}
	for _, w := range want {
		if !seen[w] {
			t.Fatalf("route %q missing from Routes(): %v", w, routes)
		}
	}
	// Each route answers with a non-404 (method dispatch, not the catch-all).
	for _, r := range routes {
		path := strings.ReplaceAll(r, "{id}", "0")
		req, err := http.NewRequest(http.MethodOptions, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			t.Fatalf("route %q fell through to the catch-all 404", r)
		}
	}
}

// TestPathIDPlainDecimal: the {id} path segment is a plain decimal int32,
// read whole. Sscanf("%d") read a prefix — /campaigns/12abc/topup topped up
// campaign 12, 0x10 read campaign 0 — and took a sign or leading space.
func TestPathIDPlainDecimal(t *testing.T) {
	api := fuzzAPI(t) // campaign 0 exists
	routes := []struct{ method, suffix, body string }{
		{"POST", "/topup", `{"amount":5}`},
		{"POST", "/pause", `{"paused":true}`},
		{"GET", "", ``},
		{"GET", "/billing", ``},
	}
	for _, rt := range routes {
		for _, id := range []string{"0abc", "0x0", "+0", "%200", "0%20", "1e0", "4294967296", "٠"} {
			req := httptest.NewRequest(rt.method, "/v1/campaigns/"+id+rt.suffix, strings.NewReader(rt.body))
			rec := httptest.NewRecorder()
			api.ServeHTTP(rec, req)
			var env errEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusBadRequest || env.Error.Code != "bad_request" {
				t.Errorf("%s /v1/campaigns/%s%s: status %d body %s, want 400 bad_request", rt.method, id, rt.suffix, rec.Code, rec.Body)
			}
		}
		for id, want := range map[string]int{"0": http.StatusOK, "000": http.StatusOK, "-1": http.StatusNotFound, "7": http.StatusNotFound} {
			req := httptest.NewRequest(rt.method, "/v1/campaigns/"+id+rt.suffix, strings.NewReader(rt.body))
			rec := httptest.NewRecorder()
			api.ServeHTTP(rec, req)
			if rec.Code != want {
				t.Errorf("%s /v1/campaigns/%s%s: status %d, want %d", rt.method, id, rt.suffix, rec.Code, want)
			}
		}
	}
	if c, _ := api.broker.CampaignState(0); c.Budget != 50+5*2 {
		t.Errorf("campaign 0 budget %g after two well-addressed top-ups of 5, want 60", c.Budget)
	}
}

// TestTrailingDataRejected: a request body is one JSON value and white
// space. json.Decoder stops at the end of the first value, so `[]x` and
// `{…} garbage` used to answer 200 on every POST route.
func TestTrailingDataRejected(t *testing.T) {
	b, err := New(Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		t.Fatal(err)
	}
	api := NewAPI(b)
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.HandleFunc("/v1/debug/explain", b.ServeExplain)
	arrival := `{"loc":{"x":0.5,"y":0.5},"capacity":1,"viewProb":0.5}`
	routes := []struct {
		path, body string
		ok         int
	}{
		{"/v1/campaigns", `{"loc":{"x":0.5,"y":0.5},"radius":0.2,"budget":50,"tags":[1,0]}`, http.StatusCreated},
		{"/v1/campaigns/0/topup", `{"amount":1}`, http.StatusOK},
		{"/v1/campaigns/0/pause", `{"paused":false}`, http.StatusOK},
		{"/v1/arrivals", arrival, http.StatusOK},
		{"/v1/arrivals", `{"Capacity":1,"viewProb":0.5}`, http.StatusOK}, // the slow path
		{"/v1/arrivals:batch", `[` + arrival + `]`, http.StatusOK},
		{"/v1/arrivals:batch", `[]`, http.StatusOK},
		{"/v1/debug/explain", arrival, http.StatusOK},
		{"/v1/events", `{"offer_id":1}`, http.StatusNotFound},
	}
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return rec
	}
	for _, rt := range routes {
		for _, pad := range []string{"", "\n", " \r\n\t "} {
			if rec := post(rt.path, rt.body+pad); rec.Code != rt.ok {
				t.Errorf("POST %s %q: status %d %s, want %d", rt.path, rt.body+pad, rec.Code, rec.Body, rt.ok)
			}
		}
		for _, junk := range []string{"x", " garbage", `{"junk":1}`, " {}", "\n[]", ",", "]", "0"} {
			rec := post(rt.path, rt.body+junk)
			var env errEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusBadRequest || env.Error.Code != "bad_request" {
				t.Errorf("POST %s %q: status %d %s, want 400 bad_request", rt.path, rt.body+junk, rec.Code, rec.Body)
			}
		}
	}
}

// TestStatusForMatchesSentinel: 404 is for errors that wrap
// ErrUnknownCampaign, not for any error whose text happens to say so.
func TestStatusForMatchesSentinel(t *testing.T) {
	b, err := New(Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.CampaignState(7)
	if err == nil || err.Error() != "broker: unknown campaign 7" {
		t.Fatalf("unknown-campaign error text changed: %v", err)
	}
	if status, code := statusFor(err); status != http.StatusNotFound || code != "not_found" {
		t.Errorf("wrapped sentinel → %d %s, want 404 not_found", status, code)
	}
	if status, code := statusFor(fmt.Errorf("topup: %w", err)); status != http.StatusNotFound || code != "not_found" {
		t.Errorf("re-wrapped sentinel → %d %s, want 404 not_found", status, code)
	}
	lookalike := fmt.Errorf("broker: top-up amount %q (unknown campaign currency)", "x")
	if status, code := statusFor(lookalike); status != http.StatusBadRequest || code != "bad_request" {
		t.Errorf("look-alike message → %d %s, want 400 bad_request", status, code)
	}
}

// TestBudgetStaysFinite: two finite top-ups once overflowed a budget to +Inf,
// after which GET /v1/campaigns answered 200 with an empty body for every
// client (encoding/json refuses +Inf). Radius, budget, top-up amount and the
// budget a top-up leaves must all be finite; the refused top-up changes
// nothing and the list still renders.
func TestBudgetStaysFinite(t *testing.T) {
	srv, b := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/campaigns", campaignRequest{Loc: pointDTO{0.5, 0.5}, Radius: 0.1, Budget: 1e308})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("registering a 1e308 budget: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	wantEnvelope(t, post("/v1/campaigns/0/topup", `{"amount":1e308}`), http.StatusBadRequest, "bad_request")
	resp, err := http.Get(srv.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	if list := decodeBody[[]campaignStateResponse](t, resp); len(list) != 1 || list[0].Budget != 1e308 {
		t.Fatalf("list after the refused top-up: %+v", list)
	}

	inf := math.Inf(1)
	if err := b.TopUp(0, inf); err == nil {
		t.Error("TopUp(+Inf) accepted")
	}
	if _, err := b.RegisterCampaignSpec(CampaignSpec{Radius: 0.1, Budget: inf}); err == nil {
		t.Error("a +Inf budget registered")
	}
	if _, err := b.RegisterCampaignSpec(CampaignSpec{Radius: inf, Budget: 1}); err == nil {
		t.Error("a +Inf radius registered")
	}
	if c, _ := b.CampaignState(0); c.Budget != 1e308 || len(b.Campaigns()) != 1 {
		t.Errorf("refused calls changed state: budget %g, %d campaigns", c.Budget, len(b.Campaigns()))
	}
}
