package broker

// The arrival wire codec: /v1/arrivals and /v1/arrivals:batch parse their
// request and render their reply here, by hand, over pooled buffers, because
// reflective encoding/json around a ≈1.3 µs decision cost 6–8 µs per arrival.
//
// Parsing declines, it never rejects. The scanner knows exactly one grammar
// — the arrival object as every client library writes it: the five keys
// spelled as documented, unescaped, at most once each, plain JSON numbers —
// and for a body in that grammar it yields precisely the value encoding/json
// with DisallowUnknownFields would (same strconv calls, same nil-versus-empty
// interests). At the first byte it is not sure about (an unknown, escaped,
// repeated or case-variant key, a null, a string, a fractional capacity, a
// number strconv refuses, any syntax doubt) it reports false and the caller
// hands the bytes it already holds to decodeStrict, so what is valid and what
// every error message says keep their single definition there
// (FuzzArrivalCodec holds the two together).
//
// Rendering replaces the reflective encoder on these routes and must match
// it byte for byte — key order, omitempty, HTML-escaped strings, ES6 float
// format, trailing newline (TestArrivalRenderMatchesEncodingJSON).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"sync"

	"muaa/internal/model"
	"muaa/internal/obs"
)

// wireBuf is one request's scratch: the body as read, the parsed arrivals
// with one backing array for all their interests, the batch kernel's result
// buffers, and the reply as rendered. Nothing in it outlives the request —
// the broker copies what it keeps.
type wireBuf struct {
	body      []byte
	arrivals  []Arrival
	interests []float64
	batch     batchScratch
	out       []byte
}

var wirePool = sync.Pool{New: func() any {
	// A non-nil backing, so that `"interests":[]` parses to an empty
	// non-nil slice as encoding/json's does.
	return &wireBuf{interests: make([]float64, 0, 64)}
}}

// readBody is the front half of the request funnel: it enforces the JSON
// Content-Type contract (absent is accepted, anything non-JSON is 415) and
// reads the whole body into buf.body, capped at maxBodyBytes (413 beyond).
func readBody(w http.ResponseWriter, r *http.Request, buf *wireBuf) bool {
	if ct := r.Header.Get("Content-Type"); ct != "" && ct != "application/json" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || mt != "application/json" {
			obs.WriteError(w, http.StatusUnsupportedMediaType, "unsupported_media_type",
				fmt.Sprintf("content type %q is not application/json", ct))
			return false
		}
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	b := buf.body[:0]
	if n := r.ContentLength; n >= int64(cap(b)) && n <= maxBodyBytes {
		b = make([]byte, 0, n+1) // +1: room for the read that returns io.EOF
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				obs.WriteError(w, http.StatusRequestEntityTooLarge, "payload_too_large",
					fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
				return false
			}
			obs.WriteError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("broker: bad request body: %v", err))
			return false
		}
	}
	buf.body = b
	return true
}

// arrivalParser scans one request body. interests is the shared backing the
// parsed arrivals' Interests slices point into; when an append moves it,
// slices handed out earlier keep the array they were cut from.
type arrivalParser struct {
	b         []byte
	i         int
	interests []float64
}

// parseArrival parses a body holding one arrival object.
func (p *arrivalParser) parseArrival(a *Arrival) bool {
	p.space()
	return p.arrival(a) && p.end()
}

// parseArrivalBatch parses a body holding an array of arrival objects,
// appending to dst. It declines past maxBatchArrivals elements: the slow
// path owns that error, and the pooled slice stays bounded.
func (p *arrivalParser) parseArrivalBatch(dst []Arrival) ([]Arrival, bool) {
	p.space()
	if !p.eat('[') {
		return dst, false
	}
	p.space()
	if p.eat(']') {
		return dst, p.end()
	}
	for {
		if len(dst) == maxBatchArrivals {
			return dst, false
		}
		dst = append(dst, Arrival{})
		if !p.arrival(&dst[len(dst)-1]) {
			return dst, false
		}
		if p.eat(',') {
			p.space()
			continue
		}
		return dst, p.eat(']') && p.end()
	}
}

// arrival parses one arrival object at p.i and the white space after it.
func (p *arrivalParser) arrival(a *Arrival) bool {
	if !p.eat('{') {
		return false
	}
	p.space()
	if p.eat('}') {
		p.space()
		return true
	}
	var seen uint // one bit per key: a repeated key declines
	for {
		key, ok := p.key()
		if !ok {
			return false
		}
		var bit uint
		switch string(key) {
		case "loc":
			bit, ok = 1, p.point(a)
		case "capacity":
			bit = 2
			a.Capacity, ok = p.integer()
		case "viewProb":
			bit = 4
			a.ViewProb, ok = p.float()
		case "interests":
			bit = 8
			a.Interests, ok = p.floats()
		case "hour":
			bit = 16
			a.Hour, ok = p.float()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		p.space()
		if p.eat(',') {
			p.space()
			continue
		}
		if !p.eat('}') {
			return false
		}
		p.space()
		return true
	}
}

// point parses the loc object {"x":…,"y":…}.
func (p *arrivalParser) point(a *Arrival) bool {
	if !p.eat('{') {
		return false
	}
	p.space()
	if p.eat('}') {
		return true
	}
	var seen uint
	for {
		key, ok := p.key()
		if !ok {
			return false
		}
		var bit uint
		switch string(key) {
		case "x":
			bit = 1
			a.Loc.X, ok = p.float()
		case "y":
			bit = 2
			a.Loc.Y, ok = p.float()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		p.space()
		if p.eat(',') {
			p.space()
			continue
		}
		return p.eat('}')
	}
}

// key reads `"name":` and the white space around the colon, returning the
// bytes between the quotes. A backslash declines: the spelled-out key is the
// only form the fast path knows.
func (p *arrivalParser) key() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			key := p.b[start:p.i]
			p.i++
			p.space()
			if !p.eat(':') {
				return nil, false
			}
			p.space()
			return key, true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// number scans one literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether it was
// all integer part. What follows the literal is the caller's to check.
func (p *arrivalParser) number() (lit []byte, integral, ok bool) {
	start := p.i
	p.eat('-')
	switch {
	case p.eat('0'):
	case p.digits():
	default:
		return nil, false, false
	}
	integral = true
	if p.eat('.') {
		integral = false
		if !p.digits() {
			return nil, false, false
		}
	}
	if p.eat('e') || p.eat('E') {
		integral = false
		if !p.eat('+') {
			p.eat('-')
		}
		if !p.digits() {
			return nil, false, false
		}
	}
	return p.b[start:p.i], integral, true
}

// maxNumberLen bounds the literals the fast path converts: string(lit) of at
// most 32 bytes that does not escape stays on the stack, and no float64 or
// int needs more to be written exactly.
const maxNumberLen = 32

func (p *arrivalParser) float() (float64, bool) {
	lit, _, ok := p.number()
	if !ok || len(lit) > maxNumberLen {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

func (p *arrivalParser) integer() (int, bool) {
	lit, integral, ok := p.number()
	if !ok || !integral || len(lit) > maxNumberLen {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(n), err == nil
}

// floats parses an array of numbers into the shared backing.
func (p *arrivalParser) floats() ([]float64, bool) {
	if !p.eat('[') {
		return nil, false
	}
	start := len(p.interests)
	p.space()
	if !p.eat(']') {
		for {
			f, ok := p.float()
			if !ok {
				return nil, false
			}
			p.interests = append(p.interests, f)
			p.space()
			if p.eat(',') {
				p.space()
				continue
			}
			if !p.eat(']') {
				return nil, false
			}
			break
		}
	}
	end := len(p.interests)
	return p.interests[start:end:end], true
}

func (p *arrivalParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *arrivalParser) digits() bool {
	b, i := p.b, p.i
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	start := p.i
	p.i = i
	return i > start
}

func (p *arrivalParser) space() {
	b, i := p.b, p.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	p.i = i
}

// end reports whether only white space remains.
func (p *arrivalParser) end() bool {
	p.space()
	return p.i == len(p.b)
}

// decodeArrival fills buf.arrivals[0] from buf.body: by the fast parser, or
// when that declines by decodeStrict, which also answers the 400.
func decodeArrival(w http.ResponseWriter, buf *wireBuf) bool {
	buf.arrivals = append(buf.arrivals[:0], Arrival{})
	p := arrivalParser{b: buf.body, interests: buf.interests[:0]}
	ok := p.parseArrival(&buf.arrivals[0])
	buf.interests = p.interests
	if ok {
		return true
	}
	var req arrivalRequest
	if !decodeStrict(w, buf.body, &req) {
		return false
	}
	buf.arrivals[0] = req.arrival()
	return true
}

// decodeArrivalBatch is decodeArrival for an array body; the arrivals land in
// buf.arrivals.
func decodeArrivalBatch(w http.ResponseWriter, buf *wireBuf) bool {
	p := arrivalParser{b: buf.body, interests: buf.interests[:0]}
	var ok bool
	buf.arrivals, ok = p.parseArrivalBatch(buf.arrivals[:0])
	buf.interests = p.interests
	if ok {
		return true
	}
	var reqs []arrivalRequest
	if !decodeStrict(w, buf.body, &reqs) {
		return false
	}
	if len(reqs) > maxBatchArrivals {
		obs.WriteError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("broker: batch of %d arrivals exceeds limit %d", len(reqs), maxBatchArrivals))
		return false
	}
	buf.arrivals = buf.arrivals[:0]
	for i := range reqs {
		buf.arrivals = append(buf.arrivals, reqs[i].arrival())
	}
	return true
}

// errNonFinite is the one way rendering fails: JSON has no NaN or ±Inf, and
// encoding/json refuses them too.
var errNonFinite = errors.New("broker: non-finite number in response")

// replyBuf accumulates a rendered reply. Like bufio.Writer its error is
// sticky, so the renderers below read as straight-line appends and the
// handler checks once, before anything has been written.
type replyBuf struct {
	b   []byte
	err error
}

func (r *replyBuf) raw(s string)  { r.b = append(r.b, s...) }
func (r *replyBuf) int(n int64)   { r.b = strconv.AppendInt(r.b, n, 10) }
func (r *replyBuf) uint(n uint64) { r.b = strconv.AppendUint(r.b, n, 10) }
func (r *replyBuf) sep(i int) {
	if i > 0 {
		r.b = append(r.b, ',')
	}
}

// float appends f as encoding/json writes a float64: ES6 number formatting —
// 'f' inside [1e-6, 1e21), else 'e' with a one-digit negative exponent
// unpadded (e-07 → e-7).
func (r *replyBuf) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		r.err = errNonFinite
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(r.b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	r.b = b
}

// offers appends the offers array: one object per committed offer, billing
// fields only on auction-billed ones (and, like omitempty, only when
// non-zero), so fixed-cost replies keep the seed schema byte for byte.
func (a *API) offers(r *replyBuf, offers []Offer) {
	r.raw("[")
	for i := range offers {
		o := &offers[i]
		r.sep(i)
		r.raw(`{"campaign":`)
		r.int(int64(o.Campaign))
		r.raw(`,"adType":`)
		r.int(int64(o.AdType))
		r.raw(`,"adTypeName":`)
		r.raw(a.adTypeNames[o.AdType])
		r.raw(`,"utility":`)
		r.float(o.Utility)
		r.raw(`,"efficiency":`)
		r.float(o.Efficiency)
		r.raw(`,"cost":`)
		r.float(o.Cost)
		if o.Model != model.BillingFixed {
			if o.ID != 0 {
				r.raw(`,"offer_id":`)
				r.uint(o.ID)
			}
			if o.ChargeECPM != 0 {
				r.raw(`,"charge_ecpm":`)
				r.float(o.ChargeECPM)
			}
			// The wire names (cpm, cpc, cpa) need no escaping.
			r.raw(`,"model":"`)
			r.raw(o.Model.String())
			r.raw(`"`)
		}
		r.raw("}")
	}
	r.raw("]")
}

// slate appends the slot view of the same offers: (vendor, ad_type,
// charge_ecpm) per slot. A fixed-cost offer has no auction charge, so its
// catalog cost is normalized to eCPM.
func slate(r *replyBuf, offers []Offer) {
	r.raw("[")
	for i := range offers {
		o := &offers[i]
		charge := o.ChargeECPM
		if o.Model == model.BillingFixed {
			charge = o.Cost * 1000
		}
		r.sep(i)
		r.raw(`{"vendor":`)
		r.int(int64(o.Campaign))
		r.raw(`,"ad_type":`)
		r.int(int64(o.AdType))
		r.raw(`,"charge_ecpm":`)
		r.float(charge)
		if o.ID != 0 {
			r.raw(`,"offer_id":`)
			r.uint(o.ID)
		}
		r.raw("}")
	}
	r.raw("]")
}

// arrivalReply renders the POST /v1/arrivals body, {"offers":[…],"slate":[…]}
// and the newline json.Encoder ends with.
func (a *API) arrivalReply(r *replyBuf, offers []Offer) {
	r.raw(`{"offers":`)
	a.offers(r, offers)
	r.raw(`,"slate":`)
	slate(r, offers)
	r.raw("}\n")
}

// batchReply renders the POST /v1/arrivals:batch body: one element per
// submitted arrival, in order, each either {"offers":[…]} or the error
// envelope's {"error":{code,message}}.
func (a *API) batchReply(r *replyBuf, results []BatchResult) {
	r.raw(`{"results":[`)
	for i := range results {
		r.sep(i)
		if err := results[i].Err; err != nil {
			// Off the success path, so the message takes the reflective
			// encoder's escaping as it is.
			msg, _ := json.Marshal(err.Error()) // a string always marshals
			r.raw(`{"error":{"code":"bad_request","message":`)
			r.b = append(r.b, msg...)
			r.raw("}}")
			continue
		}
		r.raw(`{"offers":`)
		a.offers(r, results[i].Offers)
		r.raw("}")
	}
	r.raw("]}\n")
}

// writeReply sends a rendered 200 body with WriteJSON's headers in one
// Write, its length declared. A rendering failure becomes a 500 envelope
// instead: nothing has been written yet.
func writeReply(w http.ResponseWriter, r *replyBuf) {
	if r.err != nil {
		obs.WriteError(w, http.StatusInternalServerError, "internal", r.err.Error())
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("X-Content-Type-Options", "nosniff")
	h.Set("Content-Length", strconv.Itoa(len(r.b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(r.b) // a client that hung up is not ours to report
}
