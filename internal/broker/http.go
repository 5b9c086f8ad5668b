package broker

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/obs"
	"muaa/internal/trace"
	"muaa/internal/viz"
)

// API is the JSON/HTTP front end of a Broker. Every route exists once, under
// /v1; any other path, the unversioned spellings included, is a 404:
//
//	POST /v1/campaigns                 {loc, radius, budget, tags, billing?} → {id}
//	GET  /v1/campaigns                                                      → all campaign states
//	GET  /v1/campaigns/{id}                                                 → campaign state
//	GET  /v1/campaigns/{id}/billing                                         → billing contract + escrow state
//	POST /v1/campaigns/{id}/topup      {amount}                             → {ok}
//	POST /v1/campaigns/{id}/pause      {paused}                             → {ok}
//	POST /v1/arrivals                  {loc, capacity, viewProb, ...}       → {offers, slate}
//	POST /v1/arrivals:batch            [{loc, ...}, ...]                    → {results}
//	POST /v1/events                    {offer_id, idempotency_key?}         → conversion receipt
//	GET  /v1/stats                                                          → counters
//	GET  /v1/map.svg                                                        → live campaign map
//
// All bodies and responses are JSON. POST bodies are capped at 1 MiB
// (413 beyond it) and a non-JSON Content-Type is rejected with 415; a
// missing Content-Type is accepted. A GET route also answers HEAD; a method
// the path doesn't serve gets 405 with an Allow header (obs.MethodHandler).
// Every error is the uniform envelope
//
//	{"error": {"code": "...", "message": "..."}}
//
// with a machine-readable code (bad_request, not_found, conflict,
// method_not_allowed, unsupported_media_type, payload_too_large,
// unavailable) beside the human-readable message.
type API struct {
	broker *Broker
	mux    *http.ServeMux
	// routes lists every path the mux serves, in registration order; see
	// Routes.
	routes []string
	// adTypeNames holds each ad type's name as a quoted, escaped JSON string,
	// encoded once here so the arrival renderer (wire.go) only copies it.
	adTypeNames []string
}

// maxBodyBytes caps every request body the API reads.
const maxBodyBytes = 1 << 20

// maxBatchArrivals caps the number of arrivals one /v1/arrivals:batch
// request may carry; a longer array is rejected whole with 400.
const maxBatchArrivals = 1024

// NewAPI wraps a broker in its HTTP handler.
func NewAPI(b *Broker) *API {
	a := &API{broker: b, mux: http.NewServeMux()}
	for _, t := range b.cfg.AdTypes {
		name, _ := json.Marshal(t.Name) // a string always marshals
		a.adTypeNames = append(a.adTypeNames, string(name))
	}
	a.handle("/campaigns", map[string]http.HandlerFunc{
		http.MethodPost: a.postCampaign,
		http.MethodGet:  a.listCampaigns,
	})
	a.handle("/campaigns/{id}", map[string]http.HandlerFunc{
		http.MethodGet: a.getCampaign,
	})
	a.handle("/campaigns/{id}/billing", map[string]http.HandlerFunc{
		http.MethodGet: a.getCampaignBilling,
	})
	a.handle("/campaigns/{id}/topup", map[string]http.HandlerFunc{
		http.MethodPost: a.postTopUp,
	})
	a.handle("/campaigns/{id}/pause", map[string]http.HandlerFunc{
		http.MethodPost: a.postPause,
	})
	a.handle("/arrivals", map[string]http.HandlerFunc{
		http.MethodPost: a.postArrival,
	})
	a.handle("/arrivals:batch", map[string]http.HandlerFunc{
		http.MethodPost: a.postArrivalBatch,
	})
	a.handle("/events", map[string]http.HandlerFunc{
		http.MethodPost: a.postEvent,
	})
	a.handle("/stats", map[string]http.HandlerFunc{
		http.MethodGet: a.getStats,
	})
	a.handle("/map.svg", map[string]http.HandlerFunc{
		http.MethodGet: a.getMap,
	})
	a.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no route for %s", r.URL.Path))
	})
	return a
}

// handle registers one method-dispatched route at its /v1 path.
func (a *API) handle(path string, methods map[string]http.HandlerFunc) {
	a.mux.Handle("/v1"+path, obs.MethodHandler(methods))
	a.routes = append(a.routes, "/v1"+path)
}

// Routes returns every path the API serves, in registration order. The
// documentation coverage test uses it to assert docs/API.md mentions every
// route.
func (a *API) Routes() []string {
	out := make([]string, len(a.routes))
	copy(out, a.routes)
	return out
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

// pointDTO is the wire form of a location.
type pointDTO struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type campaignRequest struct {
	Loc    pointDTO  `json:"loc"`
	Radius float64   `json:"radius"`
	Budget float64   `json:"budget"`
	Tags   []float64 `json:"tags"`
	// Delivery class (optional; defaults to best-effort). floor and penalty
	// require guaranteed: true — see Broker.RegisterCampaignSpec.
	Guaranteed bool    `json:"guaranteed,omitempty"`
	Floor      float64 `json:"floor,omitempty"`
	Penalty    float64 `json:"penalty,omitempty"`
	// Billing selects the campaign's billing contract (optional; absent means
	// seed-compatible fixed-cost billing).
	Billing *billingDTO `json:"billing,omitempty"`
}

// billingDTO is the wire form of a billing contract, on registration
// requests and in the /v1/campaigns/{id}/billing response.
type billingDTO struct {
	Model       string  `json:"model"`
	ReserveECPM float64 `json:"reserve_ecpm,omitempty"`
	// EventRate is the expected conversions-per-impression rate used to
	// normalize CPC/CPA bids to eCPM; ignored for fixed and cpm.
	EventRate float64 `json:"event_rate,omitempty"`
}

// campaignBillingResponse is the GET /v1/campaigns/{id}/billing body: the
// registered contract plus the campaign's live escrow and conversion state.
type campaignBillingResponse struct {
	ID      int32      `json:"id"`
	Billing billingDTO `json:"billing"`
	// Escrow is the budget currently held against open CPC/CPA offers;
	// Converted the revenue collected by conversions, Conversions their count.
	Escrow      float64 `json:"escrow"`
	Converted   float64 `json:"converted"`
	Conversions int64   `json:"conversions"`
}

type campaignResponse struct {
	ID int32 `json:"id"`
}

type campaignStateResponse struct {
	ID         int32     `json:"id"`
	Loc        pointDTO  `json:"loc"`
	Radius     float64   `json:"radius"`
	Budget     float64   `json:"budget"`
	Spent      float64   `json:"spent"`
	Remaining  float64   `json:"remaining"`
	Paused     bool      `json:"paused"`
	Tags       []float64 `json:"tags,omitempty"`
	Guaranteed bool      `json:"guaranteed,omitempty"`
	Floor      float64   `json:"floor,omitempty"`
	Penalty    float64   `json:"penalty,omitempty"`
	// Rate is the pacing controller's current spend-rate cap; omitted (1)
	// when uncapped.
	Rate float64 `json:"rate,omitempty"`
}

// stateResponse converts a campaign snapshot to its wire form.
func stateResponse(c Campaign, withTags bool) campaignStateResponse {
	out := campaignStateResponse{
		ID: c.ID, Loc: pointDTO{c.Loc.X, c.Loc.Y}, Radius: c.Radius,
		Budget: c.Budget, Spent: c.Spent, Remaining: c.Remaining(),
		Paused: c.Paused, Guaranteed: c.Guaranteed, Floor: c.Floor,
		Penalty: c.Penalty,
	}
	if withTags {
		out.Tags = c.Tags
	}
	if c.Rate != 1 {
		out.Rate = c.Rate
	}
	return out
}

type topUpRequest struct {
	Amount float64 `json:"amount"`
}

type pauseRequest struct {
	Paused bool `json:"paused"`
}

type arrivalRequest struct {
	Loc       pointDTO  `json:"loc"`
	Capacity  int       `json:"capacity"`
	ViewProb  float64   `json:"viewProb"`
	Interests []float64 `json:"interests"`
	Hour      float64   `json:"hour"`
}

// arrival converts the decoded request to the broker's arrival.
func (req *arrivalRequest) arrival() Arrival {
	return Arrival{
		Loc:       geo.Point{X: req.Loc.X, Y: req.Loc.Y},
		Capacity:  req.Capacity,
		ViewProb:  req.ViewProb,
		Interests: req.Interests,
		Hour:      req.Hour,
	}
}

func (a *API) postCampaign(w http.ResponseWriter, r *http.Request) {
	var req campaignRequest
	if !decode(w, r, &req) {
		return
	}
	var billing model.Billing
	if req.Billing != nil {
		m, err := model.ParseBillingModel(req.Billing.Model)
		if err != nil {
			obs.WriteError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("broker: %v", err))
			return
		}
		billing = model.Billing{
			Model:       m,
			ReserveECPM: req.Billing.ReserveECPM,
			EventRate:   req.Billing.EventRate,
		}
	}
	id, err := a.broker.RegisterCampaignSpec(CampaignSpec{
		Loc: geo.Point{X: req.Loc.X, Y: req.Loc.Y}, Radius: req.Radius,
		Budget: req.Budget, Tags: req.Tags,
		Guaranteed: req.Guaranteed, Floor: req.Floor, Penalty: req.Penalty,
		Billing: billing,
	})
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	obs.WriteJSON(w, http.StatusCreated, campaignResponse{ID: id})
}

func (a *API) postTopUp(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	var req topUpRequest
	if !decode(w, r, &req) {
		return
	}
	if err := a.broker.TopUp(id, req.Amount); err != nil {
		status, code := statusFor(err)
		obs.WriteError(w, status, code, err.Error())
		return
	}
	obs.WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (a *API) postPause(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	var req pauseRequest
	if !decode(w, r, &req) {
		return
	}
	if err := a.broker.SetPaused(id, req.Paused); err != nil {
		status, code := statusFor(err)
		obs.WriteError(w, status, code, err.Error())
		return
	}
	obs.WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (a *API) listCampaigns(w http.ResponseWriter, r *http.Request) {
	campaigns := a.broker.Campaigns()
	out := make([]campaignStateResponse, 0, len(campaigns))
	for _, c := range campaigns {
		out = append(out, stateResponse(c, false))
	}
	obs.WriteJSON(w, http.StatusOK, out)
}

func (a *API) getCampaign(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	c, err := a.broker.CampaignState(id)
	if err != nil {
		status, code := statusFor(err)
		obs.WriteError(w, status, code, err.Error())
		return
	}
	obs.WriteJSON(w, http.StatusOK, stateResponse(c, true))
}

// postArrival serves POST /v1/arrivals through the wire codec (wire.go):
// body, parsed arrival and rendered reply all live in one pooled wireBuf.
func (a *API) postArrival(w http.ResponseWriter, r *http.Request) {
	buf := wirePool.Get().(*wireBuf)
	defer wirePool.Put(buf)
	if !readBody(w, r, buf) || !decodeArrival(w, buf) {
		return
	}
	offers, err := a.broker.arriveOne(&buf.arrivals[0], trace.FromContext(r.Context()), buf.batch.offers[:0])
	buf.batch.offers = offers
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	reply := replyBuf{b: buf.out[:0]}
	a.arrivalReply(&reply, offers)
	buf.out = reply.b
	writeReply(w, &reply)
}

// postArrivalBatch serves POST /v1/arrivals:batch: a JSON array of arrival
// objects in, a results array out with one element per submitted arrival in
// order. The whole request is rejected only for transport-level problems
// (malformed JSON, > maxBatchArrivals elements, body cap); per-arrival
// validation failures surface as error elements while the remaining
// arrivals are still served.
func (a *API) postArrivalBatch(w http.ResponseWriter, r *http.Request) {
	buf := wirePool.Get().(*wireBuf)
	defer wirePool.Put(buf)
	if !readBody(w, r, buf) || !decodeArrivalBatch(w, buf) {
		return
	}
	results := a.broker.arriveBatchTraced(buf.arrivals, trace.FromContext(r.Context()), &buf.batch)
	reply := replyBuf{b: buf.out[:0]}
	a.batchReply(&reply, results)
	buf.out = reply.b
	writeReply(w, &reply)
}

type eventRequest struct {
	OfferID uint64 `json:"offer_id"`
	// IdempotencyKey deduplicates retried deliveries of the same event; a
	// replayed key is rejected with 409 conflict. Empty skips deduplication.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// eventResponse is the conversion receipt: the escrowed hold moved to the
// campaign's spend.
type eventResponse struct {
	OfferID  uint64  `json:"offer_id"`
	Campaign int32   `json:"campaign"`
	Model    string  `json:"model"`
	Charged  float64 `json:"charged"`
}

// postEvent serves POST /v1/events: a CPC/CPA conversion callback against
// an escrowed offer. Unknown, expired, or already-converted offers get 404;
// a replayed idempotency key gets 409 conflict.
func (a *API) postEvent(w http.ResponseWriter, r *http.Request) {
	var req eventRequest
	if !decode(w, r, &req) {
		return
	}
	cv, err := a.broker.Convert(req.OfferID, req.IdempotencyKey)
	if err != nil {
		switch {
		case errors.Is(err, ErrOfferUnknown):
			obs.WriteError(w, http.StatusNotFound, "not_found", err.Error())
		case errors.Is(err, ErrDuplicateEvent):
			obs.WriteError(w, http.StatusConflict, "conflict", err.Error())
		default:
			obs.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		}
		return
	}
	obs.WriteJSON(w, http.StatusOK, eventResponse{
		OfferID:  cv.OfferID,
		Campaign: cv.Campaign,
		Model:    cv.Model.String(),
		Charged:  cv.Charged,
	})
}

// getCampaignBilling serves GET /v1/campaigns/{id}/billing: the campaign's
// registered billing contract plus its live escrow and conversion state.
func (a *API) getCampaignBilling(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	c, err := a.broker.CampaignState(id)
	if err != nil {
		status, code := statusFor(err)
		obs.WriteError(w, status, code, err.Error())
		return
	}
	obs.WriteJSON(w, http.StatusOK, campaignBillingResponse{
		ID: c.ID,
		Billing: billingDTO{
			Model:       c.Billing.Model.String(),
			ReserveECPM: c.Billing.ReserveECPM,
			EventRate:   c.Billing.EventRate,
		},
		Escrow:      c.Escrow,
		Converted:   c.Converted,
		Conversions: c.Conversions,
	})
}

func (a *API) getStats(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, a.broker.Stats())
}

// getMap renders the current campaign state as an SVG map: each campaign's
// advertising disk with budget-sized markers (spent budget dims the marker
// via the viz renderer's budget scaling on Remaining()).
func (a *API) getMap(w http.ResponseWriter, r *http.Request) {
	campaigns := a.broker.Campaigns()
	view := &model.Problem{AdTypes: a.broker.cfg.AdTypes}
	for _, c := range campaigns {
		view.Vendors = append(view.Vendors, model.Vendor{
			ID:     c.ID,
			Loc:    c.Loc,
			Radius: c.Radius,
			Budget: c.Remaining(),
		})
	}
	st := a.broker.Stats()
	w.Header().Set("Content-Type", "image/svg+xml")
	w.WriteHeader(http.StatusOK)
	_ = viz.SVG(w, view, nil, viz.Options{
		ShowRanges: true,
		Title: fmt.Sprintf("%d campaigns — %d arrivals, %d offers, %.2f utility served",
			st.Campaigns, st.Arrivals, st.OffersPushed, st.UtilityServed),
	})
}

// pathID reads the {id} path segment: a plain decimal int32, all of it.
func pathID(w http.ResponseWriter, r *http.Request) (int32, bool) {
	s := r.PathValue("id")
	id, err := strconv.ParseInt(s, 10, 32)
	if err != nil || s[0] == '+' { // ParseInt takes a leading plus
		obs.WriteError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("broker: bad campaign id %q", s))
		return 0, false
	}
	return int32(id), true
}

// decode is the single funnel for request bodies: readBody enforces the
// Content-Type contract and the body cap, decodeStrict the JSON contract. The
// arrival routes call the two halves themselves, with their fast parser in
// between.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := wirePool.Get().(*wireBuf)
	defer wirePool.Put(buf)
	return readBody(w, r, buf) && decodeStrict(w, buf.body, v)
}

// decodeStrict decodes a whole request body into v: exactly one JSON value of
// v's shape, no unknown fields, nothing but white space after it.
func decodeStrict(w http.ResponseWriter, body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, more := dec.Token(); more != io.EOF {
			err = errors.New("unexpected data after the JSON value")
		}
	}
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("broker: bad request body: %v", err))
		return false
	}
	return true
}

func statusFor(err error) (int, string) {
	// Unknown-campaign errors map to 404; everything else is a bad request.
	if errors.Is(err, ErrUnknownCampaign) {
		return http.StatusNotFound, "not_found"
	}
	return http.StatusBadRequest, "bad_request"
}
