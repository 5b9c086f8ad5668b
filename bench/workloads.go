package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"muaa/internal/broker"
	"muaa/internal/model"
	"muaa/internal/workload"
)

// spec is one workload: the fleet, the traffic shape and the server flags.
// The four of them are chosen so that a different layer dominates each (see
// README.md): the why strings are copied into BENCHMARK.json.
type spec struct {
	name string
	why  string
	// campaigns is the fleet size; radiusX and budgetX scale the default
	// radius and budget ranges (budgetX 10000 means nothing ever exhausts).
	campaigns        int
	radiusX, budgetX float64
	billed           bool // the cpm/cpc/fixed mix of workload.BilledBrokerLoadConfig
	// batch is the number of arrivals per request; 0 selects the mixed
	// single-op stream of workload.DefaultBrokerLoadConfig.
	batch int
	// requests is the length of the pre-encoded request cycle, warmup the
	// number of requests sent before the timed window.
	requests, warmup int
	// convertShare is the seeded share of returned offer_ids the client
	// converts with POST /v1/events after each reply.
	convertShare float64
	durable      bool
	// flags are the workload's own additions to the server's defaults.
	flags []string
	// refArrivalsPS is what the reference server answers per second on this
	// workload's requests when the box is quiet. Only setup_s uses it: set-up
	// is stated in seconds of a machine of that speed.
	refArrivalsPS float64
}

// budgetRich workloads never exhaust a campaign; the run fails if one does.
func (s spec) budgetRich() bool { return s.budgetX > 1 }

var specs = []spec{
	{
		name:      "single",
		why:       "SDK traffic, one arrival per POST: net/http, trace middleware and JSON are ~93% of the request, the decision kernel ~5%; transport changes show here, kernel changes must not",
		campaigns: 512, radiusX: 1, budgetX: 10000, batch: 1, requests: 32768, warmup: 6000,
		refArrivalsPS: 20000,
	},
	{
		name:      "batch",
		why:       "ingest-gateway traffic, 256 arrivals per POST: per-request cost is amortised away and JSON decode/encode (~75 KB in, ~52 KB out) is ~60% of the request; parser and allocation changes show here",
		campaigns: 512, radiusX: 1, budgetX: 10000, batch: 256, requests: 64, warmup: 200,
		refArrivalsPS: 100000,
	},
	{
		name:      "dense",
		why:       "crowded billed market: 8192 campaigns, radii x2 (~260 candidates per arrival), batches of 64 plus conversions; gather, score, walk and slot fill are ~78% of cost; geo, kernel, knapsack, funnel show",
		campaigns: 8192, radiusX: 2, budgetX: 10000, billed: true, batch: 64, requests: 64, warmup: 60,
		convertShare: 0.06, refArrivalsPS: 90000,
		// At this density the live audit's recompute (every 15 s by default)
		// holds the serving core for 4–6.5 s and takes the process from 42 MB
		// to 240–340 MB; how long and how high moves with the host's load, not
		// with the program. The audit window is still captured per arrival
		// (audit.capture_ns); the recompute does not fall inside the run.
		flags: []string{"-audit-every", "1h"},
	},
	{
		name:      "durable",
		why:       "default budgets, 90/4/2/4 arrival/top-up/pause/read mix, WAL on disk: campaigns drain and refill, every mutation is logged, then kill -9 and five recoveries; the only workload where wal does work",
		campaigns: 512, radiusX: 1, budgetX: 1, requests: 65536, warmup: 12000, durable: true,
		refArrivalsPS: 19000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// verifyArrivals is how many arrivals of the stream the verify pass replays
// against the in-process twin.
const verifyArrivals = 2048

// load is a workload's generated inputs: everything the server will
// receive, encoded before any clock starts.
type load struct {
	spec     spec
	fleet    []workload.BrokerCampaign
	register []request // one POST /v1/campaigns per campaign, in id order
	requests []request // the traffic cycle
	// verifyN is the prefix of requests the verify pass replays: the
	// shortest one holding verifyArrivals arrivals.
	verifyN int
}

// Wire forms of the request bodies (docs/API.md).
type pointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type arrivalJSON struct {
	Loc       pointJSON `json:"loc"`
	Capacity  int       `json:"capacity"`
	ViewProb  float64   `json:"viewProb"`
	Interests []float64 `json:"interests"`
	Hour      float64   `json:"hour"`
}

type billingJSON struct {
	Model       string  `json:"model"`
	ReserveECPM float64 `json:"reserve_ecpm,omitempty"`
	EventRate   float64 `json:"event_rate,omitempty"`
}

type campaignJSON struct {
	Loc     pointJSON    `json:"loc"`
	Radius  float64      `json:"radius"`
	Budget  float64      `json:"budget"`
	Tags    []float64    `json:"tags"`
	Billing *billingJSON `json:"billing,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only our own plain structs reach here
	}
	return b
}

func toArrival(op workload.BrokerOp) broker.Arrival {
	return broker.Arrival{Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb, Interests: op.Interests, Hour: op.Hour}
}

func toArrivalJSON(a broker.Arrival) arrivalJSON {
	return arrivalJSON{Loc: pointJSON{a.Loc.X, a.Loc.Y}, Capacity: a.Capacity, ViewProb: a.ViewProb, Interests: a.Interests, Hour: a.Hour}
}

// campaignSpec is the registration the twin receives for fleet member c.
func campaignSpec(c workload.BrokerCampaign) broker.CampaignSpec {
	return broker.CampaignSpec{Loc: c.Loc, Radius: c.Radius, Budget: c.Budget, Tags: c.Tags, Billing: c.Billing}
}

// generate builds the workload's inputs from the seed alone.
func generate(s spec, seed int64) (*load, error) {
	arrivalsWanted := s.requests * s.batch
	var cfg workload.BrokerLoadConfig
	switch {
	case s.batch == 0:
		cfg = workload.DefaultBrokerLoadConfig(s.campaigns, s.requests, seed)
	case s.billed:
		cfg = workload.BilledBrokerLoadConfig(s.campaigns, arrivalsWanted, seed)
		// Conversions follow the server's replies (convertShare), so the
		// generated stream itself is pure arrivals.
		cfg.ArrivalFrac, cfg.ConvertFrac, cfg.TopUpFrac, cfg.PauseFrac = 1, 0, 0, 0
	default:
		cfg = workload.ArrivalBrokerLoadConfig(s.campaigns, arrivalsWanted, seed)
	}
	cfg.Radius.Lo *= s.radiusX
	cfg.Radius.Hi *= s.radiusX
	cfg.Budget.Lo *= s.budgetX
	cfg.Budget.Hi *= s.budgetX
	fleet, ops, err := workload.BrokerLoad(cfg)
	if err != nil {
		return nil, err
	}
	l := &load{spec: s, fleet: fleet}
	for _, c := range fleet {
		cj := campaignJSON{Loc: pointJSON{c.Loc.X, c.Loc.Y}, Radius: c.Radius, Budget: c.Budget, Tags: c.Tags}
		if !c.Billing.Zero() {
			cj.Billing = &billingJSON{Model: c.Billing.Model.String(), ReserveECPM: c.Billing.ReserveECPM, EventRate: c.Billing.EventRate}
		}
		l.register = append(l.register, post(opRegister, "/v1/campaigns", mustJSON(cj)))
	}
	if s.batch == 0 {
		l.requests = encodeMixed(ops, s.campaigns)
	} else {
		l.requests = encodeArrivals(ops, s.batch)
	}
	seen := 0
	for i, r := range l.requests {
		seen += len(r.arrivals)
		if seen >= verifyArrivals {
			l.verifyN = i + 1
			break
		}
	}
	if l.verifyN == 0 {
		return nil, fmt.Errorf("bench: workload %s holds %d arrivals, fewer than the %d the verify pass needs", s.name, seen, verifyArrivals)
	}
	return l, nil
}

// encodeArrivals packs a pure-arrival stream into requests of per arrivals.
func encodeArrivals(ops []workload.BrokerOp, per int) []request {
	all := make([]broker.Arrival, len(ops))
	for i, op := range ops {
		all[i] = toArrival(op)
	}
	var out []request
	for at := 0; at+per <= len(all); at += per {
		as := all[at : at+per : at+per]
		if per == 1 {
			r := post(opArrival, "/v1/arrivals", mustJSON(toArrivalJSON(as[0])))
			r.arrivals = as
			out = append(out, r)
			continue
		}
		js := make([]arrivalJSON, per)
		for i, a := range as {
			js[i] = toArrivalJSON(a)
		}
		r := post(opBatch, "/v1/arrivals:batch", mustJSON(js))
		r.arrivals = as
		out = append(out, r)
	}
	return out
}

// encodeMixed maps the mixed op stream onto one HTTP request per op. Reads
// alternate between the counters and one campaign's state.
func encodeMixed(ops []workload.BrokerOp, campaigns int) []request {
	out := make([]request, 0, len(ops))
	reads := 0
	for _, op := range ops {
		var r request
		id := strconv.Itoa(int(op.Campaign))
		switch op.Kind {
		case workload.OpArrival:
			a := toArrival(op)
			r = post(opArrival, "/v1/arrivals", mustJSON(toArrivalJSON(a)))
			r.arrivals = []broker.Arrival{a}
		case workload.OpTopUp:
			r = post(opTopUp, "/v1/campaigns/"+id+"/topup", mustJSON(map[string]float64{"amount": op.Amount}))
		case workload.OpPause:
			r = post(opPause, "/v1/campaigns/"+id+"/pause", mustJSON(map[string]bool{"paused": op.Paused}))
		default:
			if reads++; reads%2 == 1 {
				r = getReq(opStats, "/v1/stats")
			} else {
				op.Campaign = int32(reads % campaigns)
				r = getReq(opCampaign, "/v1/campaigns/"+strconv.Itoa(int(op.Campaign)))
			}
		}
		r.op = op
		out = append(out, r)
	}
	return out
}

// eventRequest encodes the conversion callback for one offer.
func eventRequest(offerID uint64) request {
	return post(opEvent, "/v1/events", []byte(`{"offer_id":`+strconv.FormatUint(offerID, 10)+`}`))
}

// stripBilling returns the fleet with every campaign on fixed-cost billing:
// the ladder's legacy-kernel arm.
func stripBilling(fleet []workload.BrokerCampaign) []workload.BrokerCampaign {
	out := append([]workload.BrokerCampaign(nil), fleet...)
	for i := range out {
		out[i].Billing = model.Billing{}
	}
	return out
}
