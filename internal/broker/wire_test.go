package broker

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"muaa/internal/model"
	"muaa/internal/workload"
)

// The oracle: the reflective DTOs the arrival routes encoded with before the
// wire codec replaced them. They live on here, test-only, as the definition
// of the reply format the hand renderer must reproduce byte for byte.

type offerDTO struct {
	Campaign   int32   `json:"campaign"`
	AdType     int     `json:"adType"`
	AdTypeName string  `json:"adTypeName"`
	Utility    float64 `json:"utility"`
	Efficiency float64 `json:"efficiency"`
	Cost       float64 `json:"cost"`
	// Billing fields, present only for offers from campaigns on auction
	// billing: offer_id identifies an escrowed CPC/CPA offer for
	// POST /v1/events, charge_ecpm is the second-priced auction charge and
	// model the campaign's billing model.
	OfferID    uint64  `json:"offer_id,omitempty"`
	ChargeECPM float64 `json:"charge_ecpm,omitempty"`
	Model      string  `json:"model,omitempty"`
}

// slateEntryDTO is one slot of the ordered slate view: the winning
// (vendor, ad-type) pair and its eCPM-normalized charge. For fixed-cost
// offers (no auction) the charge is the catalog cost normalized to eCPM.
type slateEntryDTO struct {
	Vendor     int32   `json:"vendor"`
	AdType     int     `json:"ad_type"`
	ChargeECPM float64 `json:"charge_ecpm"`
	OfferID    uint64  `json:"offer_id,omitempty"`
}

type arrivalResponse struct {
	Offers []offerDTO      `json:"offers"`
	Slate  []slateEntryDTO `json:"slate"`
}

// errorBody and errorEnvelope decode the uniform error envelope
// (obs.WriteError).
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorEnvelope struct {
	Error errorBody `json:"error"`
}

// batchResultDTO is one element of the arrivals:batch response. Exactly one
// of the two fields is set.
type batchResultDTO struct {
	Offers *[]offerDTO `json:"offers,omitempty"`
	Error  *errorBody  `json:"error,omitempty"`
}

type arrivalBatchResponse struct {
	Results []batchResultDTO `json:"results"`
}

func (a *API) offerToDTO(o Offer) offerDTO {
	d := offerDTO{
		Campaign: o.Campaign, AdType: o.AdType,
		AdTypeName: a.broker.cfg.AdTypes[o.AdType].Name,
		Utility:    o.Utility, Efficiency: o.Efficiency, Cost: o.Cost,
	}
	if o.Model != model.BillingFixed {
		d.OfferID = o.ID
		d.ChargeECPM = o.ChargeECPM
		d.Model = o.Model.String()
	}
	return d
}

func slateEntry(o Offer) slateEntryDTO {
	charge := o.ChargeECPM
	if o.Model == model.BillingFixed {
		charge = o.Cost * 1000
	}
	return slateEntryDTO{Vendor: o.Campaign, AdType: o.AdType, ChargeECPM: charge, OfferID: o.ID}
}

// oracleArrivalReply is the pre-codec postArrival reply.
func (a *API) oracleArrivalReply(tb testing.TB, offers []Offer) []byte {
	resp := arrivalResponse{
		Offers: make([]offerDTO, 0, len(offers)),
		Slate:  make([]slateEntryDTO, 0, len(offers)),
	}
	for _, o := range offers {
		resp.Offers = append(resp.Offers, a.offerToDTO(o))
		resp.Slate = append(resp.Slate, slateEntry(o))
	}
	return encodeOracle(tb, resp)
}

// oracleBatchReply is the pre-codec postArrivalBatch reply.
func (a *API) oracleBatchReply(tb testing.TB, results []BatchResult) []byte {
	resp := arrivalBatchResponse{Results: make([]batchResultDTO, len(results))}
	for i := range results {
		if err := results[i].Err; err != nil {
			resp.Results[i].Error = &errorBody{Code: "bad_request", Message: err.Error()}
			continue
		}
		offers := make([]offerDTO, 0, len(results[i].Offers))
		for _, o := range results[i].Offers {
			offers = append(offers, a.offerToDTO(o))
		}
		resp.Results[i].Offers = &offers
	}
	return encodeOracle(tb, resp)
}

func encodeOracle(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sameArrival is reflect.DeepEqual made strict about what it lets pass on
// floats: bit patterns (so -0 ≠ 0) and nil versus empty interests.
func sameArrival(a, b Arrival) bool {
	bits := math.Float64bits
	if a.Capacity != b.Capacity || bits(a.Loc.X) != bits(b.Loc.X) || bits(a.Loc.Y) != bits(b.Loc.Y) ||
		bits(a.ViewProb) != bits(b.ViewProb) || bits(a.Hour) != bits(b.Hour) ||
		(a.Interests == nil) != (b.Interests == nil) || len(a.Interests) != len(b.Interests) {
		return false
	}
	for i := range a.Interests {
		if bits(a.Interests[i]) != bits(b.Interests[i]) {
			return false
		}
	}
	return true
}

// checkCodec holds the fast parser to its contract on one body, read both
// as a single arrival and as a batch: it declines, or it yields exactly what
// the strict reflective decode yields. It returns which reads were taken.
func checkCodec(t *testing.T, body string) (single, batch bool) {
	t.Helper()
	var got Arrival
	p := arrivalParser{b: []byte(body), interests: make([]float64, 0, 4)}
	if single = p.parseArrival(&got); single {
		var want arrivalRequest
		if rec := httptest.NewRecorder(); !decodeStrict(rec, []byte(body), &want) {
			t.Fatalf("fast parser took %q, encoding/json refuses it: %s", body, rec.Body)
		}
		if !sameArrival(got, want.arrival()) {
			t.Fatalf("body %q: fast parser %+v, encoding/json %+v", body, got, want.arrival())
		}
	}
	p = arrivalParser{b: []byte(body), interests: make([]float64, 0, 4)}
	var gots []Arrival
	if gots, batch = p.parseArrivalBatch(nil); batch {
		var wants []arrivalRequest
		if rec := httptest.NewRecorder(); !decodeStrict(rec, []byte(body), &wants) {
			t.Fatalf("fast parser took batch %q, encoding/json refuses it: %s", body, rec.Body)
		}
		if len(gots) != len(wants) {
			t.Fatalf("batch %q: fast parser %d arrivals, encoding/json %d", body, len(gots), len(wants))
		}
		for i := range gots {
			if !sameArrival(gots[i], wants[i].arrival()) {
				t.Fatalf("batch %q element %d: fast parser %+v, encoding/json %+v", body, i, gots[i], wants[i].arrival())
			}
		}
	}
	return single, batch
}

// codecBodies are the bodies the parser's contract is spelled out on; take
// says whether the fast path must accept (as a single arrival, or wrapped in
// brackets as a batch) rather than decline.
var codecBodies = []struct {
	body string
	take bool
}{
	{`{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3],"hour":13.5}`, true},
	{` { "hour" : 1e1 , "loc" : { "y" : -0 , "x" : 1E-2 } ,` + "\r\n\t" + `"interests" : [ ] , "capacity" : -0 } ` + "\n", true},
	{`{}`, true},
	{`{"loc":{}}`, true},
	{`{"interests":[]}`, true},
	{`{"capacity":9223372036854775807}`, true},
	{`{"viewProb":-0}`, true},
	{`{"viewProb":-0.0e-0}`, true},
	{`{"hour":4.9e-324,"viewProb":2.2250738585072014e-308}`, true},
	{`{"hour":1e-400}`, true}, // underflows to 0 in both
	{`{"capacity":9223372036854775808}`, false},
	{`{"capacity":1000000000000000000000000000000000}`, false},
	{`{"capacity":1.0}`, false},
	{`{"capacity":1e2}`, false},
	{`{"capacity":"1"}`, false},
	{`{"viewProb":1e400}`, false},
	{`{"viewProb":0.100000000000000000000000000000000001}`, false}, // longer than the stack temp
	{`{"viewProb":"NaN"}`, false},
	{`{"viewProb":NaN}`, false},
	{`{"viewProb":.5}`, false},
	{`{"viewProb":01}`, false},
	{`{"viewProb":1.}`, false},
	{`{"viewProb":+1}`, false},
	{`{"viewProb":null}`, false},
	{`{"interests":null}`, false},
	{`{"interests":[null]}`, false},
	{`{"interests":[[1]]}`, false},
	{`{"interests":[1,]}`, false},
	{`{"loc":null}`, false},
	{`{"loc":[0,1]}`, false},
	{`{"loc":{"x":1,"x":2}}`, false},
	{`{"loc":{"z":1}}`, false},
	{`{"loc":{"x":1},"loc":{"y":2}}`, false},
	{`{"hour":1,"hour":2}`, false},
	{`{"unknown":true}`, false},
	{`{"Capacity":1}`, false},
	{`{"VIEWPROB":0.5}`, false},
	{`{"lo\u0063":{}}`, false},
	{`{"hour":1,}`, false},
	{`{"hour" 1}`, false},
	{`{"hour":1} garbage`, false},
	{`{"hour":1}{}`, false},
	{`{nope`, false},
	{`null`, false},
	{`0`, false},
	{``, false},
	{"\ufeff{}", false},
}

// FuzzArrivalCodec: for any body at all, the fast parser either declines or
// agrees with encoding/json to the bit.
func FuzzArrivalCodec(f *testing.F) {
	for _, c := range codecBodies {
		f.Add(c.body)
		f.Add("[" + c.body + "]")
		f.Add("[" + c.body + "," + c.body + "]")
	}
	f.Add(`[]`)
	f.Add(`[]x`)
	f.Add(`[{}] {}`)
	f.Add(`[{},]`)
	f.Add(`[null]`)
	f.Fuzz(func(t *testing.T, body string) { checkCodec(t, body) })
}

// TestArrivalParserTakesAndDeclines pins which side of the line each body of
// the table falls on: a parser that declined everything would pass the fuzz
// contract and give the whole gain back.
func TestArrivalParserTakesAndDeclines(t *testing.T) {
	for _, c := range codecBodies {
		if single, _ := checkCodec(t, c.body); single != c.take {
			t.Errorf("body %q: fast path taken = %v, want %v", c.body, single, c.take)
		}
		if _, batch := checkCodec(t, "[ "+c.body+" ,"+c.body+"]"); batch != c.take {
			t.Errorf("batch of %q: fast path taken = %v, want %v", c.body, batch, c.take)
		}
	}
	if _, batch := checkCodec(t, " [ ] "); !batch {
		t.Error("empty batch declined")
	}
	// A batch over the limit is the slow path's to refuse.
	over := "[" + strings.Repeat("{},", maxBatchArrivals) + "{}]"
	if _, batch := checkCodec(t, over); batch {
		t.Errorf("fast path took a batch of %d", maxBatchArrivals+1)
	}
	// What encoding/json marshals is what the fast path must take.
	load := codecLoad(t, 64, 7)
	if _, batch := checkCodec(t, string(load.batchBody)); !batch {
		t.Error("fast path declined a marshalled batch")
	}
}

// codecFixture is a budget-rich fixed-cost fleet on a fresh broker (the
// benchmark's `single`/`batch` fleet) and a pure-arrival stream for it, as
// arrivals and as the request bodies encoding/json marshals for them.
type codecFixture struct {
	api       *API
	arrivals  []Arrival
	bodies    [][]byte // one POST /v1/arrivals body per arrival
	batchBody []byte   // all of them as one POST /v1/arrivals:batch body
}

func codecLoad(tb testing.TB, n int, seed int64) *codecFixture {
	tb.Helper()
	cfg := workload.ArrivalBrokerLoadConfig(512, n, seed)
	cfg.Budget.Lo, cfg.Budget.Hi = 1e4*cfg.Budget.Lo, 1e4*cfg.Budget.Hi
	return newCodecFixture(tb, cfg)
}

func newCodecFixture(tb testing.TB, cfg workload.BrokerLoadConfig) *codecFixture {
	tb.Helper()
	fleet, ops, err := workload.BrokerLoad(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := New(Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		tb.Fatal(err)
	}
	registerLoad(tb, b, fleet)
	fx := &codecFixture{api: NewAPI(b)}
	var reqs []arrivalRequest
	for _, op := range ops {
		if op.Kind != workload.OpArrival {
			continue
		}
		req := arrivalRequest{Loc: pointDTO{op.Loc.X, op.Loc.Y}, Capacity: op.Capacity,
			ViewProb: op.ViewProb, Interests: op.Interests, Hour: op.Hour}
		body, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		reqs = append(reqs, req)
		fx.arrivals = append(fx.arrivals, req.arrival())
		fx.bodies = append(fx.bodies, body)
	}
	if fx.batchBody, err = json.Marshal(reqs); err != nil {
		tb.Fatal(err)
	}
	return fx
}

func (fx *codecFixture) post(path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	fx.api.ServeHTTP(rec, req)
	return rec
}

// TestArrivalRoutesMatchOracle drives the two arrival routes and a twin
// broker with the same stream — a billed fleet, so every reply field is live
// — and requires each reply to be, byte for byte, what the reflective
// encoder made of the twin's decision, with its length declared.
func TestArrivalRoutesMatchOracle(t *testing.T) {
	cfg := workload.BilledBrokerLoadConfig(256, 640, 3)
	cfg.ArrivalFrac, cfg.ConvertFrac, cfg.TopUpFrac, cfg.PauseFrac = 1, 0, 0, 0
	served, twin := newCodecFixture(t, cfg), newCodecFixture(t, cfg)
	check := func(what string, rec *httptest.ResponseRecorder, want []byte) {
		t.Helper()
		if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: status %d\n got %s\nwant %s", what, rec.Code, rec.Body, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
			t.Fatalf("%s: Content-Length %q, body is %d bytes", what, cl, len(want))
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Fatalf("%s: Content-Type %q", what, ct)
		}
	}
	offered, billed := 0, 0
	for i := 0; i < 128; i++ {
		offers, err := twin.api.broker.Arrive(twin.arrivals[i])
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprint("arrival ", i), served.post("/v1/arrivals", served.bodies[i]),
			twin.api.oracleArrivalReply(t, offers))
	}
	invalid := []byte(`{"capacity":-1},{"viewProb":2},`)
	for at := 128; at+64 <= len(twin.arrivals); at += 64 {
		// Two rejected elements lead each batch: per-element errors.
		batch := append([]Arrival{{Capacity: -1}, {ViewProb: 2}}, twin.arrivals[at:at+64]...)
		raw := append([]byte("["), invalid...)
		raw = append(raw, bytes.Join(served.bodies[at:at+64], []byte(","))...)
		raw = append(raw, ']')
		results := twin.api.broker.ArriveBatch(batch)
		for _, r := range results {
			offered += len(r.Offers)
			for _, o := range r.Offers {
				if o.Model != model.BillingFixed {
					billed++
				}
			}
		}
		check(fmt.Sprint("batch at ", at), served.post("/v1/arrivals:batch", raw),
			twin.api.oracleBatchReply(t, results))
	}
	if offered == 0 || billed == 0 {
		t.Fatalf("stream made %d offers, %d billed: the comparison is vacuous", offered, billed)
	}
	check("empty batch", served.post("/v1/arrivals:batch", []byte(`[]`)), twin.api.oracleBatchReply(t, nil))
}

// TestArrivalRenderMatchesEncodingJSON holds the renderer to the reflective
// encoder on offers no stream would produce: every float regime of the ES6
// format, billed and fixed, zero-valued omitempty fields, error elements
// whose message needs escaping, a name that needs escaping.
func TestArrivalRenderMatchesEncodingJSON(t *testing.T) {
	adTypes := workload.DefaultAdTypes()
	adTypes[0].Name = "te\"xt<&> \x01é"
	b, err := New(Config{AdTypes: adTypes})
	if err != nil {
		t.Fatal(err)
	}
	api := NewAPI(b)
	rng := rand.New(rand.NewSource(1))
	edges := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999999999999e-7, 1e21, 9.999999999999999e20,
		1e22, 4.9e-324, 2.2250738585072014e-308, math.MaxFloat64, 1, 0.1, 100, 1e20, 123456789.125, 5e-324, 1e-10, 1.5e-9, 1e100, 1e-100}
	float := func() float64 {
		var f float64
		switch rng.Intn(4) {
		case 0:
			f = edges[rng.Intn(len(edges))]
		case 1:
			f = rng.Float64()
		case 2:
			f = math.Float64frombits(rng.Uint64())
			if math.IsNaN(f) || math.IsInf(f, 0) {
				f = 1
			}
		default:
			f = math.Pow(10, float64(rng.Intn(60)-30)) * rng.Float64()
		}
		if rng.Intn(4) == 0 {
			f = -f
		}
		return f
	}
	offer := func() Offer {
		o := Offer{Campaign: rng.Int31() - 1<<30, AdType: rng.Intn(len(adTypes)),
			Utility: float(), Efficiency: float(), Cost: float()}
		if rng.Intn(2) == 0 {
			o.Model = model.BillingModel(1 + rng.Intn(model.NumBillingModels-1))
			o.ChargeECPM = float()
			if rng.Intn(3) > 0 {
				o.ID = rng.Uint64()
			}
		} else if math.IsInf(o.Cost*1000, 0) {
			o.Cost = 1e21 // the slate view's charge must stay finite
		}
		return o
	}
	offers := func() []Offer {
		out := make([]Offer, rng.Intn(4))
		for i := range out {
			out[i] = offer()
		}
		return out
	}
	for round := 0; round < 2000; round++ {
		single := offers()
		reply := replyBuf{}
		api.arrivalReply(&reply, single)
		if want := api.oracleArrivalReply(t, single); reply.err != nil || !bytes.Equal(reply.b, want) {
			t.Fatalf("arrival reply (err %v)\n got %s\nwant %s", reply.err, reply.b, want)
		}
		results := make([]BatchResult, rng.Intn(5))
		for i := range results {
			switch rng.Intn(4) {
			case 0:
				results[i].Err = fmt.Errorf("broker: view <probability> %g & \"more\"\n ", float())
			case 1:
				results[i].Err = validateArrival(&Arrival{Capacity: -1 - rng.Intn(9)})
			default:
				results[i].Offers = offers()
				if len(results[i].Offers) == 0 && rng.Intn(2) == 0 {
					results[i].Offers = nil
				}
			}
		}
		reply = replyBuf{}
		api.batchReply(&reply, results)
		if want := api.oracleBatchReply(t, results); reply.err != nil || !bytes.Equal(reply.b, want) {
			t.Fatalf("batch reply (err %v)\n got %s\nwant %s", reply.err, reply.b, want)
		}
	}
}

// TestArrivalReplyNonFinite: a NaN or ±Inf in an offer has no JSON form. The
// reflective path found that out after the 200 header was on the wire and
// sent a truncated body; the renderer finds out before anything is written.
func TestArrivalReplyNonFinite(t *testing.T) {
	api := fuzzAPI(t)
	for name, offers := range map[string][]Offer{
		"utility":    {{Utility: 1, Cost: 1}, {Utility: math.NaN(), Cost: 1}},
		"efficiency": {{Efficiency: math.Inf(1), Cost: 1}},
		"cost":       {{Cost: math.Inf(-1)}}, // also the slate's charge
		"charge":     {{Cost: 1, Model: model.BillingCPM, ChargeECPM: math.NaN()}},
	} {
		for _, batch := range []bool{false, true} {
			reply := replyBuf{}
			if batch {
				api.batchReply(&reply, []BatchResult{{}, {Offers: offers}})
			} else {
				api.arrivalReply(&reply, offers)
			}
			rec := httptest.NewRecorder()
			writeReply(rec, &reply)
			var env errEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError || env.Error.Code != "internal" {
				t.Errorf("non-finite %s (batch %v): status %d, body %q (err %v); want a 500 envelope", name, batch, rec.Code, rec.Body, err)
			}
		}
	}
}

// TestArrivalCodecZeroAllocs is the codec's allocation bar, beside the
// kernel's *ZeroAllocs* pins: once the pooled buffers have seen a
// 256-arrival request, parsing its body and rendering its reply allocate
// nothing — which also says encoding/json is not on that path.
func TestArrivalCodecZeroAllocs(t *testing.T) {
	fx := codecLoad(t, 256, 42)
	results := fx.api.broker.ArriveBatch(fx.arrivals)
	offers := 0
	for _, r := range results {
		offers += len(r.Offers)
	}
	if len(results) != 256 || offers == 0 {
		t.Fatalf("fixture: %d results, %d offers", len(results), offers)
	}
	buf := wirePool.Get().(*wireBuf)
	defer wirePool.Put(buf)
	buf.body = fx.batchBody
	codec := func() {
		p := arrivalParser{b: buf.body, interests: buf.interests[:0]}
		var ok bool
		buf.arrivals, ok = p.parseArrivalBatch(buf.arrivals[:0])
		buf.interests = p.interests
		if !ok || len(buf.arrivals) != 256 {
			t.Fatalf("fast parser declined the body (%d arrivals)", len(buf.arrivals))
		}
		reply := replyBuf{b: buf.out[:0]}
		fx.api.batchReply(&reply, results)
		if buf.out = reply.b; reply.err != nil {
			t.Fatal(reply.err)
		}
	}
	codec() // grow the buffers to the request's size
	if allocs := testing.AllocsPerRun(20, codec); allocs != 0 {
		t.Fatalf("parse + render of a 256-arrival request allocates %v times, want 0", allocs)
	}
	for i := range buf.arrivals {
		if !sameArrival(buf.arrivals[i], fx.arrivals[i]) {
			t.Fatalf("arrival %d: parsed %+v, sent %+v", i, buf.arrivals[i], fx.arrivals[i])
		}
	}
	buf.body = nil // the fixture's, not the pool's
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// benchBody is a request body that can be rewound instead of rebuilt.
type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }

// benchmarkAPI posts bodies round-robin through API.ServeHTTP into a
// discarding writer: the bench ladder's `api` arm (kernel + JSON, no
// middleware, no socket) without the harness. perBody is arrivals per body.
func benchmarkAPI(b *testing.B, api *API, path string, bodies [][]byte, perBody int) {
	req := httptest.NewRequest("POST", path, nil)
	req.Header.Set("Content-Type", "application/json")
	body := &benchBody{}
	req.Body = body
	w := &discardWriter{h: http.Header{}}
	post := func(i int) {
		body.Reset(bodies[i%len(bodies)])
		req.ContentLength = int64(body.Len())
		if api.ServeHTTP(w, req); w.status != 200 {
			b.Fatalf("status %d", w.status)
		}
	}
	for i := range bodies {
		post(i) // warm γ, arenas and pooled buffers
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perBody), "ns/arrival")
}

// BenchmarkAPIArrival is the `single` workload's api rung: one arrival per
// POST /v1/arrivals on the budget-rich 512-campaign fleet.
func BenchmarkAPIArrival(b *testing.B) {
	fx := codecLoad(b, 4096, 42)
	benchmarkAPI(b, fx.api, "/v1/arrivals", fx.bodies, 1)
}

// BenchmarkAPIArrivalBatch is the `batch` workload's api rung (api.json_ns
// plus the kernel under it): 256 arrivals per POST /v1/arrivals:batch.
func BenchmarkAPIArrivalBatch(b *testing.B) {
	fx := codecLoad(b, 16*256, 42)
	var bodies [][]byte
	for at := 0; at < len(fx.bodies); at += 256 {
		body := append([]byte("["), bytes.Join(fx.bodies[at:at+256], []byte(","))...)
		bodies = append(bodies, append(body, ']'))
	}
	benchmarkAPI(b, fx.api, "/v1/arrivals:batch", bodies, 256)
}

// TestArrivalCodecConcurrent shares the buffer pool between handlers the way
// a server does: every goroutine posts batches whose length and pattern of
// rejected elements are its own, and must read exactly that pattern back.
func TestArrivalCodecConcurrent(t *testing.T) {
	fx := codecLoad(t, 256, 5)
	const workers, rounds = 8, 40
	done := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			n := 16 + 24*g
			parts := make([][]byte, n)
			for i := range parts {
				if parts[i] = fx.bodies[(g+i)%len(fx.bodies)]; i%(g+2) == 0 {
					parts[i] = []byte(`{"capacity":-1}`)
				}
			}
			body := append(append([]byte("["), bytes.Join(parts, []byte(","))...), ']')
			for round := 0; round < rounds; round++ {
				rec := fx.post("/v1/arrivals:batch", body)
				var resp arrivalBatchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != 200 || len(resp.Results) != n {
					done <- fmt.Errorf("worker %d: status %d, %d results for %d arrivals (err %v)", g, rec.Code, len(resp.Results), n, err)
					return
				}
				for i, res := range resp.Results {
					if rejected := res.Error != nil; rejected != (i%(g+2) == 0) || rejected == (res.Offers != nil) {
						done <- fmt.Errorf("worker %d element %d: %+v", g, i, res)
						return
					}
				}
				if single := fx.post("/v1/arrivals", parts[1]); single.Code != 200 {
					done <- fmt.Errorf("worker %d: single arrival status %d", g, single.Code)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < workers; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}
