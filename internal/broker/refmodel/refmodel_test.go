package refmodel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"muaa/internal/broker"
	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/pacing"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

// api is the broker's methods a history drives; the model has them too.
type api interface {
	RegisterCampaignSpec(broker.CampaignSpec) (int32, error)
	TopUp(int32, float64) error
	SetPaused(int32, bool) error
	Arrive(broker.Arrival) ([]broker.Offer, error)
	ArriveBatch([]broker.Arrival) []broker.BatchResult
	Convert(uint64, string) (broker.Conversion, error)
	PacingStep() (pacing.Decision, error)
}

var controller = pacing.Default()

// variants are the configurations the property runs under, each at 1, 4
// and 64 stripes.
var variants = []struct {
	name string
	cfg  broker.Config
}{
	{"default", broker.Config{}},
	{"paced", broker.Config{Pacing: 1.25}},
	{"g8", broker.Config{G: 8}},
	{"slate", broker.Config{Slate: true}},
	{"controller", broker.Config{Controller: &controller}},
}

var stripes = []int{1, 4, 64}

// TestBrokerMatchesRefModel drives seeded random histories through a
// durable broker and the model together, one over an all-fixed fleet and
// one over a billed fleet per configuration, with clean restarts and
// torn-tail crashes along the way. After every op the answers (offers,
// receipts, controller decisions, error-ness) and the state (Stats,
// Campaigns) must be bit-identical, and CheckInvariants must hold.
func TestBrokerMatchesRefModel(t *testing.T) {
	for _, shards := range stripes {
		for _, v := range variants {
			t.Run(fmt.Sprintf("stripes=%d/%s", shards, v.name), func(t *testing.T) {
				for _, billed := range []bool{false, true} {
					rng := rand.New(rand.NewSource(int64(shards)*10 + int64(len(v.name))))
					r := newRun(t, v.cfg, shards, billed, t.TempDir(), rng.Intn)
					for r.n < 300 {
						r.do(r.next())
					}
					r.close()
				}
			})
		}
	}
}

// TestRefModelEscrowBound fills the escrow table past its 65 536 open holds
// (64 CPC campaigns, every arrival serving each a hold), so the oldest are
// released to their campaigns, then converts offers old and new.
func TestRefModelEscrowBound(t *testing.T) {
	r := newRun(t, broker.Config{}, 4, true, "", rand.New(rand.NewSource(3)).Intn)
	spec := broker.CampaignSpec{Loc: geo.Point{X: 0.5, Y: 0.5}, Radius: 0.2, Budget: 1e9, Tags: []float64{1, 0, 0.5, 0.2},
		Billing: model.Billing{Model: model.BillingCPC, ReserveECPM: 1000, EventRate: 1}}
	a := broker.Arrival{Loc: spec.Loc, Capacity: 64, ViewProb: 1, Interests: spec.Tags, Hour: 12}
	for i := 0; i < 64; i++ {
		r.do(register(spec))
	}
	for r.m.st.EscrowReleased == 0 || r.n < 220 {
		r.do(arrive([]broker.Arrival{a, a, a, a, a, a, a, a}, true))
	}
	for i := 0; i < 60; i++ {
		r.do(r.convert())
	}
}

// FuzzBrokerMatchesRefModel holds the same contract over a history decoded
// from the input: the first two bytes pick the configuration, the fleet and
// durability, and every later draw reads two bytes.
func FuzzBrokerMatchesRefModel(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dir, src := "", data[2:]
		if data[1]&8 != 0 {
			dir = t.TempDir()
		}
		draw := func(n int) int {
			var b [2]byte
			src = src[copy(b[:], src):]
			return int(binary.LittleEndian.Uint16(b[:])) % n
		}
		r := newRun(t, variants[int(data[0])%len(variants)].cfg, stripes[int(data[1])%len(stripes)], data[1]&4 != 0, dir, draw)
		for len(src) > 0 && r.n < 500 {
			r.do(r.next())
		}
		r.close()
	})
}

// op is one step of a history: f runs it on the broker or the model and
// returns its answer and each request's error. Restarts have no f.
type op struct {
	name string
	f    func(api) (any, []error)
}

func register(s broker.CampaignSpec) op {
	return op{fmt.Sprintf("register %+v", s), func(x api) (any, []error) {
		id, err := x.RegisterCampaignSpec(s)
		return id, []error{err}
	}}
}

// arrive submits w alone (one arrival) or as one ArriveBatch window.
func arrive(w []broker.Arrival, batch bool) op {
	return op{fmt.Sprintf("arrive %+v (batch %v)", w, batch), func(x api) (any, []error) {
		if !batch {
			offers, err := x.Arrive(w[0])
			return offers, []error{err}
		}
		var offers [][]broker.Offer
		var errs []error
		for _, res := range x.ArriveBatch(w) {
			offers, errs = append(offers, res.Offers), append(errs, res.Err)
		}
		return offers, errs
	}}
}

// run is one history: the broker, the model, and what a crash recovers —
// the model as of the broker's last snapshot, and the ops logged since.
type run struct {
	t      testing.TB
	cfg    broker.Config
	billed bool // register billed campaigns too, not only fixed ones
	draw   func(n int) int
	n      int    // ops so far
	op     string // the op under way, for failure messages

	b       *broker.Broker
	m       *refModel
	dir     string
	base    *refModel
	journal []func(api) (any, []error)
}

func newRun(t testing.TB, cfg broker.Config, shards int, billed bool, dir string, draw func(int) int) *run {
	cfg.AdTypes, cfg.Shards = workload.DefaultAdTypes(), shards
	cfg.WAL = wal.Options{Sync: wal.SyncEveryRecord, SnapshotEvery: -1}
	r := &run{t: t, cfg: cfg, billed: billed, draw: draw, m: newRefModel(cfg), dir: dir}
	r.boot()
	for i := 0; i < 6; i++ {
		r.do(register(r.spec()))
	}
	return r
}

// boot opens the broker on r.dir (in memory when empty) and makes the model
// what it recovered: its last snapshot plus the logged ops it replayed.
func (r *run) boot() {
	cfg := r.cfg
	cfg.DataDir = r.dir
	b, err := broker.New(cfg)
	r.must(err)
	n := b.RecoveryStats().RecordsReplayed
	if r.b, r.op = b, fmt.Sprintf("%s, %d of %d logged ops replayed", r.op, n, len(r.journal)); n > len(r.journal) {
		r.fail("replayed more records than were logged")
	}
	for _, f := range r.journal[:n] {
		f(r.m)
	}
	r.base, r.journal = r.m.clone(), nil
}

func (r *run) close() { r.must(r.b.Close()) }

func (r *run) must(err error) {
	if r.t.Helper(); err != nil {
		r.fail("%v", err)
	}
}

func (r *run) fail(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("op %d of the billed=%v history (%s): %s", r.n, r.billed, r.op, fmt.Sprintf(format, args...))
}

// same demands equal %#v renderings: every float's shortest round-trip
// form, so bit equality.
func (r *run) same(what string, got, want any) {
	r.t.Helper()
	if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
		r.fail("%s diverge\nbroker: %s\nmodel:  %s", what, g, w)
	}
}

// do runs one op through both: each request must fail alike (with the
// model's sentinel, if it names one), and the answers, the state and the
// broker's invariants must hold. An op with an accepted request was logged.
func (r *run) do(o op) {
	r.t.Helper()
	r.op = o.name
	switch o.name {
	case "reopen": // Close snapshots: nothing is left to replay
		r.close()
		r.journal = nil
		r.boot()
	case "crash":
		r.crash()
	default:
		got, gerrs := o.f(r.b)
		want, werrs := o.f(r.m)
		for i, err := range werrs {
			if (gerrs[i] == nil) != (err == nil) || err != nil && err != errInvalid && !errors.Is(gerrs[i], err) {
				r.fail("request %d: broker error %v, model error %v", i, gerrs[i], err)
			}
		}
		r.same("answers", got, want)
		if slices.Contains(werrs, nil) {
			r.journal = append(r.journal, o.f)
		}
	}
	r.n++
	r.same("stats", r.b.Stats(), r.m.Stats())
	r.same("campaigns", r.b.Campaigns(), r.m.Campaigns())
	r.must(r.b.CheckInvariants())
}

// crash abandons the broker and boots a copy of its directory with the
// active WAL segment cut at a random byte.
func (r *run) crash() {
	dir := r.t.TempDir()
	files, err := os.ReadDir(r.dir)
	r.must(err)
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(r.dir, f.Name()))
		r.must(err)
		if filepath.Ext(f.Name()) == ".log" {
			data = data[:r.draw(len(data)+1)]
		}
		r.must(os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644))
	}
	r.close()
	r.m, r.dir = r.base, dir
	r.boot()
}

// next draws a random op.
func (r *run) next() op {
	switch k := r.draw(100); {
	case k < 5:
		return register(r.spec())
	case k < 10:
		id, amount := r.id(), []float64{-1, math.MaxFloat64, r.unit() * 50}[min(r.draw(10), 2)]
		return op{fmt.Sprintf("topup %d %g", id, amount), func(x api) (any, []error) {
			return nil, []error{x.TopUp(id, amount)}
		}}
	case k < 14:
		id, paused := r.id(), r.draw(3) == 0
		return op{fmt.Sprintf("pause %d %v", id, paused), func(x api) (any, []error) {
			return nil, []error{x.SetPaused(id, paused)}
		}}
	case k < 40:
		return arrive(r.arrivals(1), false)
	case k < 60:
		return arrive(r.arrivals(1+r.draw(9)), true)
	case k < 80:
		return r.convert()
	case k < 88:
		return op{"pacing step", func(x api) (any, []error) {
			d, err := x.PacingStep()
			return d, []error{err}
		}}
	case k < 91 && r.dir != "":
		return op{name: "reopen"}
	case k < 94 && r.dir != "":
		return op{name: "crash"}
	}
	return arrive(r.arrivals(1), false)
}

// convert collects an offer id issued so far, or 0 or the next one (never
// issued), under a key from a small pool or none.
func (r *run) convert() op {
	id, key := uint64(r.draw(int(r.m.nextID)+1)), ""
	if r.draw(3) != 0 {
		key = fmt.Sprint("k", r.draw(40))
	}
	return op{fmt.Sprintf("convert %d %q", id, key), func(x api) (any, []error) {
		c, err := x.Convert(id, key)
		return c, []error{err}
	}}
}

func (r *run) unit() float64 { return float64(r.draw(1001)) / 1000 }

func (r *run) id() int32 { return int32(r.draw(len(r.m.cs)+2) - 1) }

// loc is mostly in the unit square, sometimes just outside it.
func (r *run) loc() geo.Point { return geo.Point{X: r.unit()*1.2 - 0.1, Y: r.unit()*1.2 - 0.1} }

// vec is a tag or interest vector in one of two taxonomies (4 or 3 tags),
// sometimes flat, which scores 0.
func (r *run) vec() []float64 {
	v, flat := make([]float64, 4-r.draw(5)/4), r.draw(10) == 0
	for i := range v {
		if v[i] = r.unit(); flat {
			v[i] = 0.5
		}
	}
	return v
}

// spec is a campaign, fixed or (in a billed run) on any contract, sometimes
// guaranteed, empty or invalid.
func (r *run) spec() broker.CampaignSpec {
	s := broker.CampaignSpec{Loc: r.loc(), Radius: 0.05 + r.unit()*0.45, Budget: 5 + r.unit()*100, Tags: r.vec()}
	if reserve, rate := r.unit()*20, 0.05+r.unit()*0.95; r.billed {
		s.Billing = []model.Billing{{}, {Model: model.BillingCPM, ReserveECPM: reserve},
			{Model: model.BillingCPC, ReserveECPM: reserve, EventRate: rate},
			{Model: model.BillingCPA, ReserveECPM: reserve, EventRate: rate}, {}}[r.draw(5)]
	}
	switch r.draw(12) {
	case 0, 1:
		s.Guaranteed, s.Floor, s.Penalty = true, r.unit(), r.unit()
	case 2:
		s.Budget = 0
	case 3:
		s.Budget = -1
	case 4:
		s.Floor = 0.5 // without a guarantee
	case 5:
		s.Radius = math.NaN()
	}
	return s
}

// arrivals are n arrivals, some at capacity 0 or past every candidate, some
// invalid.
func (r *run) arrivals(n int) []broker.Arrival {
	w := make([]broker.Arrival, n)
	for i := range w {
		a := &w[i]
		*a = broker.Arrival{Loc: r.loc(), Capacity: 1 + r.draw(4), ViewProb: r.unit(), Interests: r.vec(), Hour: r.unit() * 24}
		switch r.draw(25) {
		case 0:
			a.Capacity = 0
		case 1:
			a.Capacity = 9
		case 2:
			a.Capacity = -1
		case 3:
			a.ViewProb = 1.5
		case 4:
			a.Hour = 25
		}
	}
	return w
}
