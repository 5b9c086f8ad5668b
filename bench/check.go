package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"muaa/internal/broker"
	"muaa/internal/workload"
)

// offerJSON is the wire form of one offer in a reply (docs/API.md).
type offerJSON struct {
	Campaign   int32   `json:"campaign"`
	AdType     int     `json:"adType"`
	Utility    float64 `json:"utility"`
	Efficiency float64 `json:"efficiency"`
	Cost       float64 `json:"cost"`
	OfferID    uint64  `json:"offer_id"`
	ChargeECPM float64 `json:"charge_ecpm"`
	Model      string  `json:"model"`
}

// reply is the decoded answer to any request; which fields are set depends
// on the request's kind.
type reply struct {
	// Offers and Results: /v1/arrivals fills Offers, :batch fills Results.
	Offers  []offerJSON `json:"offers"`
	Results []struct {
		Offers *[]offerJSON     `json:"offers"`
		Error  *json.RawMessage `json:"error"`
	} `json:"results"`
	// Campaign state and registration replies.
	ID     *int32  `json:"id"`
	Budget float64 `json:"budget"`
	Spent  float64 `json:"spent"`
	Paused bool    `json:"paused"`
	// Conversion receipt.
	Campaign int32   `json:"campaign"`
	Charged  float64 `json:"charged"`
	OK       bool    `json:"ok"`
}

// offersOf returns the i-th arrival's offers of a checked reply.
func (p *reply) offersOf(kind opKind, i int) []offerJSON {
	if kind == opBatch {
		return *p.Results[i].Offers
	}
	return p.Offers
}

// check is what every reply must satisfy, twin or no twin: the right
// status, a body that parses, one result per arrival, no more offers than
// the arrival's capacity, campaign ids that exist. It decodes the whole
// body into p; scanArrivals is the cheap equivalent for the timed window.
func check(r *request, status int, body []byte, campaigns int, p *reply) error {
	want := 200
	if r.kind == opRegister {
		want = 201
	}
	if status != want {
		return fmt.Errorf("status %d, want %d: %s", status, want, bytes.TrimSpace(body))
	}
	if r.kind == opOther {
		return nil
	}
	// A fresh value every time: encoding/json leaves the fields a reused
	// slice element had, so a reply that omits offer_id would keep the last
	// one's.
	*p = reply{}
	if err := json.Unmarshal(body, p); err != nil {
		return fmt.Errorf("malformed body: %v", err)
	}
	switch r.kind {
	case opArrival, opBatch:
		if r.kind == opBatch && len(p.Results) != len(r.arrivals) {
			return fmt.Errorf("%d results for %d arrivals", len(p.Results), len(r.arrivals))
		}
		for i, a := range r.arrivals {
			if r.kind == opBatch && (p.Results[i].Error != nil || p.Results[i].Offers == nil) {
				return fmt.Errorf("arrival %d rejected: %s", i, rawOrEmpty(p.Results[i].Error))
			}
			offers := p.offersOf(r.kind, i)
			if len(offers) > a.Capacity {
				return fmt.Errorf("arrival %d: %d offers exceed capacity %d", i, len(offers), a.Capacity)
			}
			for _, o := range offers {
				if o.Campaign < 0 || int(o.Campaign) >= campaigns {
					return fmt.Errorf("arrival %d: campaign id %d outside the fleet of %d", i, o.Campaign, campaigns)
				}
			}
		}
	case opTopUp, opPause:
		if !p.OK {
			return fmt.Errorf("not acknowledged: %s", bytes.TrimSpace(body))
		}
	case opCampaign, opRegister:
		if p.ID == nil || (r.kind == opCampaign && *p.ID != r.op.Campaign) {
			return fmt.Errorf("wrong or missing id: %s", bytes.TrimSpace(body))
		}
	}
	return nil
}

// answered is what the load generator keeps of an arrival or batch reply:
// how many offers came back, and the ids of those awaiting conversion.
type answered struct {
	offers int
	ids    []uint64
}

// note adds a decoded reply to a.
func (a *answered) note(r *request, p *reply) {
	for i := range r.arrivals {
		for _, o := range p.offersOf(r.kind, i) {
			a.offers++
			if o.OfferID != 0 {
				a.ids = append(a.ids, o.OfferID)
			}
		}
	}
}

// scanArrivals checks an arrival or batch reply without decoding it into
// values: json.Valid for well-formedness, then one pass over the bytes that
// finds every "offers" array and reads only the campaign and offer_id of
// each object in it. It enforces what check enforces and adds to a. The
// generator shares a core with the server, so what it spends per reply
// comes straight out of the throughput it reports.
func scanArrivals(r *request, status int, body []byte, campaigns int, a *answered) error {
	if status != 200 {
		return fmt.Errorf("status %d, want 200: %s", status, bytes.TrimSpace(body))
	}
	if !json.Valid(body) {
		return fmt.Errorf("malformed body (%d bytes)", len(body))
	}
	arrays, i := 0, 0
	for {
		j := bytes.Index(body[i:], offersKey)
		if j < 0 {
			break
		}
		i = skipSpace(body, i+j+len(offersKey))
		if i >= len(body) || body[i] != ':' {
			continue // the word inside a string, not a key
		}
		if i = skipSpace(body, i+1); i >= len(body) || body[i] != '[' {
			return fmt.Errorf("arrival %d: offers is not an array", arrays)
		}
		if arrays >= len(r.arrivals) {
			return fmt.Errorf("more than %d results", len(r.arrivals))
		}
		n, end, err := scanOfferArray(body, i+1, campaigns, a)
		if err != nil {
			return fmt.Errorf("arrival %d: %v", arrays, err)
		}
		if n > r.arrivals[arrays].Capacity {
			return fmt.Errorf("arrival %d: %d offers exceed capacity %d", arrays, n, r.arrivals[arrays].Capacity)
		}
		a.offers += n
		arrays++
		i = end
	}
	if arrays != len(r.arrivals) {
		return fmt.Errorf("%d results for %d arrivals: %.200s", arrays, len(r.arrivals), body)
	}
	return nil
}

var (
	offersKey   = []byte(`"offers"`)
	campaignKey = []byte("campaign")
	offerIDKey  = []byte("offer_id")
)

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scanOfferArray walks one offers array starting just past its '[' and
// returns the number of objects in it and the index just past its ']'. The
// body is already known to be valid JSON.
func scanOfferArray(b []byte, i, campaigns int, a *answered) (n, end int, err error) {
	depth := 0
	campaign, id := int64(-1), uint64(0)
	for i < len(b) {
		switch c := b[i]; c {
		case '"':
			j := i + 1
			for b[j] != '"' {
				if b[j] == '\\' {
					j++
				}
				j++
			}
			key := b[i+1 : j]
			i = j + 1
			if depth != 1 || (!bytes.Equal(key, campaignKey) && !bytes.Equal(key, offerIDKey)) {
				continue
			}
			if k := skipSpace(b, i); b[k] == ':' {
				k = skipSpace(b, k+1)
				var v uint64
				digits := 0
				for ; b[k] >= '0' && b[k] <= '9'; k++ {
					v = v*10 + uint64(b[k]-'0')
					digits++
				}
				if digits == 0 {
					return 0, 0, fmt.Errorf("%s is not a non-negative integer", key)
				}
				if key[0] == 'c' {
					campaign = int64(v)
				} else {
					id = v
				}
				i = k
			}
			continue
		case '{', '[':
			if depth++; depth == 1 {
				campaign, id = -1, 0
			}
		case '}':
			if depth--; depth == 0 {
				if campaign < 0 || campaign >= int64(campaigns) {
					return 0, 0, fmt.Errorf("campaign id %d outside the fleet of %d", campaign, campaigns)
				}
				if id != 0 {
					a.ids = append(a.ids, id)
				}
				n++
			}
		case ']':
			if depth == 0 {
				return n, i + 1, nil
			}
			depth--
		}
		i++
	}
	return 0, 0, fmt.Errorf("offers array does not end")
}

func rawOrEmpty(m *json.RawMessage) string {
	if m == nil {
		return "no offers and no error"
	}
	return string(*m)
}

// twin is the in-process broker the verify pass compares the server with.
// It runs with no metrics, trace, funnel or audit: those are documented as
// observation-only, so the instrumented server must decide identically.
type twin struct {
	b *broker.Broker
}

func newTwin(fleet []workload.BrokerCampaign) (*twin, error) {
	b, err := broker.New(broker.Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		return nil, err
	}
	for i, c := range fleet {
		id, err := b.RegisterCampaignSpec(campaignSpec(c))
		if err != nil || int(id) != i {
			return nil, fmt.Errorf("bench: twin registration %d: id %d, %v", i, id, err)
		}
	}
	return &twin{b: b}, nil
}

// sameOffers compares one arrival's served offers with the twin's: the same
// (campaign, ad type) sequence, and every number equal after the JSON
// round trip (Go prints the shortest decimal that parses back exactly, so
// equal float64s stay equal).
func sameOffers(got []offerJSON, want []broker.Offer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d offers, twin has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Campaign != w.Campaign || g.AdType != w.AdType {
			return fmt.Errorf("offer %d is (campaign %d, ad type %d), twin has (%d, %d)", i, g.Campaign, g.AdType, w.Campaign, w.AdType)
		}
		if g.Utility != w.Utility || g.Efficiency != w.Efficiency || g.Cost != w.Cost || g.ChargeECPM != w.ChargeECPM || g.OfferID != w.ID {
			return fmt.Errorf("offer %d differs: got utility %v efficiency %v cost %v charge %v id %d, twin has %v %v %v %v %d",
				i, g.Utility, g.Efficiency, g.Cost, g.ChargeECPM, g.OfferID, w.Utility, w.Efficiency, w.Cost, w.ChargeECPM, w.ID)
		}
	}
	return nil
}

// expect feeds r to the twin and compares the server's checked reply p
// (raw body for the byte-compared counters) with what the twin did. It
// returns the utility the twin served for r's arrivals.
func (t *twin) expect(r *request, p *reply, body []byte) (utility float64, err error) {
	switch r.kind {
	case opArrival:
		want, err := t.b.Arrive(r.arrivals[0])
		if err != nil {
			return 0, fmt.Errorf("twin rejected the arrival: %v", err)
		}
		for _, o := range want {
			utility += o.Utility
		}
		return utility, sameOffers(p.Offers, want)
	case opBatch:
		for i, res := range t.b.ArriveBatch(r.arrivals) {
			if res.Err != nil {
				return 0, fmt.Errorf("twin rejected arrival %d: %v", i, res.Err)
			}
			for _, o := range res.Offers {
				utility += o.Utility
			}
			if err := sameOffers(p.offersOf(opBatch, i), res.Offers); err != nil {
				return 0, fmt.Errorf("arrival %d: %v", i, err)
			}
		}
	case opTopUp:
		return 0, t.b.TopUp(r.op.Campaign, r.op.Amount)
	case opPause:
		return 0, t.b.SetPaused(r.op.Campaign, r.op.Paused)
	case opStats:
		if want := mustJSON(t.b.Stats()); !bytes.Equal(bytes.TrimSpace(body), want) {
			return 0, fmt.Errorf("stats differ:\n server %s\n twin   %s", bytes.TrimSpace(body), want)
		}
	case opCampaign:
		c, err := t.b.CampaignState(r.op.Campaign)
		if err != nil {
			return 0, err
		}
		if p.Budget != c.Budget || p.Spent != c.Spent || p.Paused != c.Paused {
			return 0, fmt.Errorf("campaign %d: server budget %v spent %v paused %v, twin %v %v %v",
				c.ID, p.Budget, p.Spent, p.Paused, c.Budget, c.Spent, c.Paused)
		}
	}
	return utility, nil
}

// convert mirrors one POST /v1/events on the twin.
func (t *twin) convert(offerID uint64, p *reply) error {
	cv, err := t.b.Convert(offerID, "")
	if err != nil {
		return fmt.Errorf("twin refused conversion of offer %d: %v", offerID, err)
	}
	if p.Campaign != cv.Campaign || p.Charged != cv.Charged {
		return fmt.Errorf("conversion of offer %d: server (campaign %d, charged %v), twin (%d, %v)",
			offerID, p.Campaign, p.Charged, cv.Campaign, cv.Charged)
	}
	return nil
}
