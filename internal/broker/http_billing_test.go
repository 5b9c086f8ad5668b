package broker

// HTTP surface tests for the billing redesign: the billing block on
// campaign registration, the slate view on arrival responses, the
// /v1/events conversion callback with its error envelope, and the
// /v1/campaigns/{id}/billing state endpoint.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/workload"
)

// registerBilled posts a campaign with a billing block near (0.5, 0.5)
// and returns its id.
func registerBilled(t *testing.T, url string, billing *billingDTO) int32 {
	t.Helper()
	resp := postJSON(t, url+"/v1/campaigns", campaignRequest{
		Loc: pointDTO{0.5, 0.5}, Radius: 0.2, Budget: 10, Tags: []float64{1, 0},
		Billing: billing,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	return decodeBody[campaignResponse](t, resp).ID
}

// arriveOnce posts one capacity-1 arrival at (0.5, 0.51) and returns the
// response body.
func arriveOnce(t *testing.T, url string) arrivalResponse {
	t.Helper()
	resp := postJSON(t, url+"/v1/arrivals", arrivalRequest{
		Loc: pointDTO{0.5, 0.51}, Capacity: 1, ViewProb: 0.8,
		Interests: []float64{0.9, 0.1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arrival status %d", resp.StatusCode)
	}
	return decodeBody[arrivalResponse](t, resp)
}

// TestHTTPSlateView pins the dual-view arrival response: a fixed-cost
// offer appears in slate with its catalog cost normalized to eCPM and no
// billing fields in the offers element.
func TestHTTPSlateView(t *testing.T) {
	srv, _ := newTestServer(t)
	registerBilled(t, srv.URL, nil)
	out := arriveOnce(t, srv.URL)
	if len(out.Offers) != 1 || len(out.Slate) != 1 {
		t.Fatalf("offers %+v slate %+v", out.Offers, out.Slate)
	}
	o, s := out.Offers[0], out.Slate[0]
	if o.OfferID != 0 || o.Model != "" || o.ChargeECPM != 0 {
		t.Errorf("fixed offer leaked billing fields: %+v", o)
	}
	if s.Vendor != o.Campaign || s.AdType != o.AdType || s.ChargeECPM != o.Cost*1000 {
		t.Errorf("slate %+v does not mirror offer %+v", s, o)
	}
	if s.OfferID != 0 {
		t.Errorf("fixed slate entry has offer id %d", s.OfferID)
	}
}

// TestRemainingExcludesEscrow: budget held for open CPC offers is not
// remaining, on the Go API and on GET /v1/campaigns/{id} alike.
func TestRemainingExcludesEscrow(t *testing.T) {
	srv, b := newTestServer(t)
	id := registerBilled(t, srv.URL, &billingDTO{Model: "cpc", ReserveECPM: 2.5, EventRate: 0.05})
	arriveOnce(t, srv.URL)
	c, _ := b.CampaignState(id)
	resp, err := http.Get(fmt.Sprintf("%s/v1/campaigns/%d", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	got := decodeBody[campaignStateResponse](t, resp).Remaining
	if !(c.Escrow > 0) || c.Remaining() != c.Budget-c.Spent-c.Escrow || got != c.Remaining() {
		t.Fatalf("budget %g, spent %g, escrow %g: Remaining() = %g, GET remaining = %g", c.Budget, c.Spent, c.Escrow, c.Remaining(), got)
	}
}

// TestHTTPConversionFlow walks the CPC loop end to end over HTTP:
// register with a billing block, serve an escrowed offer, read the
// billing state, convert via /v1/events, and observe escrow → spend.
func TestHTTPConversionFlow(t *testing.T) {
	srv, _ := newTestServer(t)
	// A reserve price matters here: with one campaign there is no runner-up,
	// so without a reserve the second price — and thus the hold — is zero.
	id := registerBilled(t, srv.URL, &billingDTO{Model: "cpc", ReserveECPM: 2, EventRate: 0.1})

	out := arriveOnce(t, srv.URL)
	if len(out.Offers) != 1 {
		t.Fatalf("offers %+v", out.Offers)
	}
	o := out.Offers[0]
	if o.OfferID == 0 || o.Model != "cpc" || o.Cost != 0 {
		t.Fatalf("escrowed offer DTO: %+v", o)
	}
	if out.Slate[0].OfferID != o.OfferID {
		t.Fatalf("slate offer id %d != %d", out.Slate[0].OfferID, o.OfferID)
	}

	// Billing state shows the hold.
	resp, err := http.Get(fmt.Sprintf("%s/v1/campaigns/%d/billing", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	bs := decodeBody[campaignBillingResponse](t, resp)
	if bs.Billing.Model != "cpc" || bs.Escrow <= 0 || bs.Conversions != 0 {
		t.Fatalf("billing state %+v", bs)
	}

	// Convert it.
	resp = postJSON(t, srv.URL+"/v1/events", eventRequest{OfferID: o.OfferID, IdempotencyKey: "k1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("event status %d", resp.StatusCode)
	}
	ev := decodeBody[eventResponse](t, resp)
	if ev.OfferID != o.OfferID || ev.Campaign != id || ev.Model != "cpc" || ev.Charged != bs.Escrow {
		t.Fatalf("receipt %+v, want charge %g", ev, bs.Escrow)
	}

	resp, err = http.Get(fmt.Sprintf("%s/v1/campaigns/%d/billing", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	after := decodeBody[campaignBillingResponse](t, resp)
	if after.Escrow != 0 || after.Converted != ev.Charged || after.Conversions != 1 {
		t.Fatalf("billing state after conversion %+v", after)
	}
}

// TestHTTPEventErrors pins the error envelope on the events surface: a
// replayed idempotency key is 409 conflict (a new code), a consumed or
// never-issued offer id is 404 not_found.
func TestHTTPEventErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	registerBilled(t, srv.URL, &billingDTO{Model: "cpa", ReserveECPM: 2, EventRate: 0.2})
	out := arriveOnce(t, srv.URL)
	oid := out.Offers[0].OfferID

	// Never-issued id.
	resp := postJSON(t, srv.URL+"/v1/events", eventRequest{OfferID: oid + 999})
	wantEnvelope(t, resp, http.StatusNotFound, "not_found")

	// First conversion succeeds; the replayed key conflicts even though the
	// offer is gone (idempotency is checked first).
	resp = postJSON(t, srv.URL+"/v1/events", eventRequest{OfferID: oid, IdempotencyKey: "dup"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("event status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, srv.URL+"/v1/events", eventRequest{OfferID: oid, IdempotencyKey: "dup"})
	wantEnvelope(t, resp, http.StatusConflict, "conflict")

	// Same offer, fresh key: the offer was consumed → not_found.
	resp = postJSON(t, srv.URL+"/v1/events", eventRequest{OfferID: oid, IdempotencyKey: "fresh"})
	wantEnvelope(t, resp, http.StatusNotFound, "not_found")

	// Malformed body stays a transport-level 400.
	resp = postJSON(t, srv.URL+"/v1/events", map[string]any{"offer": "x"})
	wantEnvelope(t, resp, http.StatusBadRequest, "bad_request")
}

// TestHTTPBillingValidation pins registration-time billing errors: an
// unknown model and an invalid contract are both bad_request.
func TestHTTPBillingValidation(t *testing.T) {
	srv, _ := newTestServer(t)

	resp := postJSON(t, srv.URL+"/v1/campaigns", campaignRequest{
		Loc: pointDTO{0.5, 0.5}, Radius: 0.2, Budget: 10, Tags: []float64{1, 0},
		Billing: &billingDTO{Model: "cpx"},
	})
	wantEnvelope(t, resp, http.StatusBadRequest, "bad_request")

	// CPC without an event rate is invalid.
	resp = postJSON(t, srv.URL+"/v1/campaigns", campaignRequest{
		Loc: pointDTO{0.5, 0.5}, Radius: 0.2, Budget: 10, Tags: []float64{1, 0},
		Billing: &billingDTO{Model: "cpc"},
	})
	wantEnvelope(t, resp, http.StatusBadRequest, "bad_request")

	// Billing state of an unknown campaign is 404.
	getResp, err := http.Get(srv.URL + "/v1/campaigns/99/billing")
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, getResp, http.StatusNotFound, "not_found")
}

// FuzzPostEvent throws arbitrary bodies at POST /v1/events: the handler
// must always answer with a well-formed status (200/400/404/409, never a
// 5xx or a hang) regardless of input.
func FuzzPostEvent(f *testing.F) {
	b, err := New(Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := b.RegisterCampaignSpec(CampaignSpec{
		Loc: geo.Point{X: 0.5, Y: 0.5}, Radius: 0.2, Budget: 10, Tags: []float64{1, 0},
		Billing: model.Billing{Model: model.BillingCPC, ReserveECPM: 2, EventRate: 0.1},
	}); err != nil {
		f.Fatal(err)
	}
	b.Arrive(Arrival{Loc: geo.Point{X: 0.5, Y: 0.51}, Capacity: 1, ViewProb: 0.8, Interests: []float64{0.9, 0.1}})
	api := NewAPI(b)

	f.Add(`{"offer_id": 1, "idempotency_key": "k"}`)
	f.Add(`{"offer_id": 0}`)
	f.Add(`{"offer_id": -3}`)
	f.Add(`{}`)
	f.Add(`[]`)
	f.Add(`{"offer_id": 18446744073709551615}`)
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader([]byte(body)))
		w := httptest.NewRecorder()
		api.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
		default:
			t.Fatalf("body %q: status %d", body, w.Code)
		}
	})
}
