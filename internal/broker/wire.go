package broker

// The arrival wire codec: /v1/arrivals and /v1/arrivals:batch parse their
// request and render their reply here, by hand, over pooled buffers, because
// reflective encoding/json around a ≈1.3 µs decision cost 6–8 µs per arrival.
//
// Parsing declines, it never rejects. The scanner knows exactly one grammar
// — the arrival object as every client library writes it: the five keys
// spelled as documented, unescaped, at most once each, plain JSON numbers —
// and for a body in that grammar it yields precisely the value encoding/json
// with DisallowUnknownFields would (strconv's float bits, the same
// nil-versus-empty interests). At the first byte it is not sure about (an
// unknown, escaped, repeated or case-variant key, a null, a string, a
// fractional capacity, a number strconv refuses, any syntax doubt) it
// reports false and the caller hands the bytes it already holds to
// decodeStrict, so what is valid and what every error message says keep
// their single definition there (FuzzArrivalCodec holds the two together).
//
// Rendering replaces the reflective encoder on these routes and must match
// it byte for byte — key order, omitempty, HTML-escaped strings, ES6 float
// format, trailing newline (TestArrivalRenderMatchesEncodingJSON).

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"mime"
	"net/http"
	"slices"
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

// number is one scanned literal's value, ±man·10^exp, exact while nd (its
// significant digits) is ≤ 19.
type number struct {
	man     uint64
	exp, nd int
	neg     bool
}

// number scans one literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and its value in the same
// pass (zeros leading a fraction only move exp), and says whether it was all
// integer part. What follows the literal is the caller's to check.
func (p *arrivalParser) number() (n number, integral, ok bool) {
	b, i := p.b, p.i
	if n.neg = i < len(b) && b[i] == '-'; n.neg {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if j, man := digits(b, i, 0); j > i {
		n.man, n.nd, i = man, j-i, j
	} else {
		return n, false, false
	}
	intEnd := i
	if i < len(b) && b[i] == '.' {
		i++
		at := i
		for n.nd == 0 && i < len(b) && b[i] == '0' {
			i++
		}
		j, man := digits(b, i, n.man)
		if j == at {
			return n, false, false
		}
		n.man, n.nd, n.exp, i = man, n.nd+j-i, at-j, j
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		sign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			sign = int(',') - int(b[i]) // '+' and '-' sit either side of ','
			i++
		}
		j, e := digits(b, i, 0)
		if j == i {
			return n, false, false
		}
		if j-i > 4 {
			e = 1e4 // far past any float64, as strconv caps it
		}
		n.exp += sign * int(e)
		i = j
	}
	p.i = i
	return n, i == intEnd, true
}

// digits accumulates the run of digits at b[i:] onto man and returns where
// it ends. Past 19 digits man wraps; the caller's digit count says so.
func digits(b []byte, i int, man uint64) (int, uint64) {
	for ; i+8 <= len(b); i += 8 { // eight at a time, as Lemire (2021) does
		v := binary.LittleEndian.Uint64(b[i:])
		if v&0xF0F0F0F0F0F0F0F0|(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
			break
		}
		v -= 0x3030303030303030
		v = v*10 + v>>8
		v = (v&0x000000FF000000FF*(100+1000000<<32) + v>>16&0x000000FF000000FF*(1+10000<<32)) >> 32
		man = man*1e8 + v
	}
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		man = man*10 + uint64(b[i]-'0')
	}
	return i, man
}

// maxNumberLen bounds the literals the fast path takes: string(lit) of at
// most 32 bytes that does not escape stays on the stack, and no float64 or
// int needs more to be written exactly.
const maxNumberLen = 32

// float and integer return exactly what strconv does for the literal, asking
// it only what they cannot decide, so the take/decline line is strconv's.
func (p *arrivalParser) float() (float64, bool) {
	start := p.i
	n, _, ok := p.number()
	if !ok || p.i-start > maxNumberLen {
		return 0, false
	}
	if f, ok := n.float64(); ok {
		return f, true
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	return f, err == nil
}

func (p *arrivalParser) integer() (int, bool) {
	start := p.i
	n, integral, ok := p.number()
	if !ok || !integral || p.i-start > maxNumberLen {
		return 0, false
	}
	if v := int(n.man); n.nd <= 19 && n.man <= math.MaxInt {
		if n.neg {
			v = -v
		}
		return v, true
	}
	v, err := strconv.ParseInt(string(p.b[start:p.i]), 10, strconv.IntSize)
	return int(v), err == nil
}

// float64 converts n exactly where that is cheap: Clinger's fast path when
// man and 10^-exp are exact float64s (one IEEE division rounds once), else
// Eisel–Lemire. It declines > 19 significant digits and exponents past pow10Table.
func (n number) float64() (f float64, ok bool) {
	switch {
	case n.nd > 19 || n.exp < pow10Min || n.exp > pow10Max:
	case n.man == 0:
		ok = true // ±0 at any scale
	case n.man>>53 == 0 && n.exp <= 0 && n.exp >= -22: // math.Pow10 is exact to 1e22
		f, ok = float64(n.man)/math.Pow10(-n.exp), true
	default:
		f, ok = eiselLemire(n.man, n.exp)
	}
	if n.neg {
		f = -f
	}
	return f, ok
}

// eiselLemire is strconv's eiselLemire64 for man > 0 over pow10Table (Lemire,
// "Number Parsing at a Gigabyte per Second", 2021): it declines non-normal
// results and the half-way cases the 128-bit product cannot settle.
func eiselLemire(man uint64, exp10 int) (float64, bool) {
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	retExp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	pow := &pow10Table[exp10-pow10Min]
	xHi, xLo := bits.Mul64(man, pow[1])
	if xHi&0x1FF == 0x1FF && xLo+man < man { // the product's tail is unsure: widen
		yHi, yLo := bits.Mul64(man, pow[0])
		lo, carry := bits.Add64(xLo, yHi, 0)
		if hi := xHi + carry; hi&0x1FF == 0x1FF && lo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = xHi+carry, lo
	}
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 { // half-way
		return 0, false
	}
	retMantissa = (retMantissa + retMantissa&1) >> 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	if retExp2-1 >= 0x7FF-1 { // subnormal, or past MaxFloat64
		return 0, false
	}
	return math.Float64frombits(retExp2<<52 | retMantissa&(1<<52-1)), true
}

// pow10Table is the window of pow10s the parse converts over: arrival
// numbers (scores, coordinates, hours) sit well inside [pow10Min, pow10Max],
// and strconv takes the rest.
const pow10Min, pow10Max = -64, 63

var pow10Table = (*[pow10Max - pow10Min + 1][2]uint64)(pow10s[pow10Min-pow10sMin:])

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

// float appends f as encoding/json writes a float64: the shortest digits
// that read back as f, laid out in ES6 number formatting — fixed for
// 1e-6 ≤ |f| < 1e21 (decimal point position dp in [-5, 21], ES6's own test,
// which encoding/json's float comparisons agree with), else exponential with
// the exponent unpadded (1e-7, 1e+21).
func (r *replyBuf) float(f float64) {
	u := math.Float64bits(f)
	exp, mant := int(u>>52)&0x7FF, u&(1<<52-1)
	switch exp {
	case 0x7FF:
		r.err = errNonFinite
		return
	case 0: // subnormal
		exp++
	default:
		mant |= 1 << 52
	}
	var buf [32]byte
	d := decimalSlice{d: buf[:]}
	ryuShortest(&d, mant, exp-1023-52)
	digits := d.d[:d.nd]

	n := len(r.b)
	b := slices.Grow(r.b, maxFloatLen)
	out := b[n : n+maxFloatLen]
	i := 0
	if u>>63 != 0 {
		out[i] = '-'
		i++
	}
	switch dp := d.dp; {
	case d.nd == 0: // ±0
		out[i] = '0'
		i++
	case dp < -5 || dp > 21:
		out[i] = digits[0]
		i++
		if d.nd > 1 {
			out[i] = '.'
			i++
			i += copy(out[i:], digits[1:])
		}
		x := dp - 1
		out[i], out[i+1] = 'e', '+'
		if x < 0 {
			out[i+1], x = '-', -x
		}
		i += 2
		if x >= 100 {
			out[i] = byte(x/100) + '0'
			i++
		}
		if x >= 10 {
			out[i] = byte(x/10%10) + '0'
			i++
		}
		out[i] = byte(x%10) + '0'
		i++
	case dp <= 0: // 0.000ddd
		out[i], out[i+1] = '0', '.'
		i += 2
		for ; dp < 0; dp++ {
			out[i] = '0'
			i++
		}
		i += copy(out[i:], digits)
	case dp < d.nd: // ddd.ddd
		i += copy(out[i:], digits[:dp])
		out[i] = '.'
		i++
		i += copy(out[i:], digits[dp:])
	default: // ddd000
		i += copy(out[i:], digits)
		for ; dp > d.nd; dp-- {
			out[i] = '0'
			i++
		}
	}
	r.b = b[:n+i]
}

// maxFloatLen bounds what float writes: a sign, "0.", five zeros and 17
// digits.
const maxFloatLen = 25

// wireAdType is one ad type's reply fragments, rendered once: its quoted,
// escaped name, and the cost and slate charge (cost*1000) of an offer
// fixed-billed at the catalog cost (> 0, so == on it is bit equality).
type wireAdType struct {
	name, cost, ecpm string
	catalog          float64 // NaN, matching no offer, if either will not render
}

func newWireAdType(t model.AdType) wireAdType {
	name, _ := json.Marshal(t.Name) // a string always marshals
	var r replyBuf
	r.float(t.Cost)
	n := len(r.b)
	if r.float(t.Cost * 1000); r.err != nil {
		t.Cost = math.NaN()
	}
	return wireAdType{name: string(name), cost: string(r.b[:n]), ecpm: string(r.b[n:]), catalog: t.Cost}
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
		t := &a.adTypes[o.AdType]
		r.raw(`,"adTypeName":`)
		r.raw(t.name)
		r.raw(`,"utility":`)
		r.float(o.Utility)
		r.raw(`,"efficiency":`)
		r.float(o.Efficiency)
		r.raw(`,"cost":`)
		if o.Model == model.BillingFixed && o.Cost == t.catalog {
			r.raw(t.cost)
		} else {
			r.float(o.Cost)
		}
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
func (a *API) slate(r *replyBuf, offers []Offer) {
	r.raw("[")
	for i := range offers {
		o := &offers[i]
		r.sep(i)
		r.raw(`{"vendor":`)
		r.int(int64(o.Campaign))
		r.raw(`,"ad_type":`)
		r.int(int64(o.AdType))
		r.raw(`,"charge_ecpm":`)
		switch t := &a.adTypes[o.AdType]; {
		case o.Model == model.BillingFixed && o.Cost == t.catalog:
			r.raw(t.ecpm)
		case o.Model == model.BillingFixed:
			r.float(o.Cost * 1000)
		default:
			r.float(o.ChargeECPM)
		}
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
	a.slate(r, offers)
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
			_, code := statusFor(err)
			r.raw(`{"error":{"code":"`)
			r.raw(code)
			r.raw(`","message":`)
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
