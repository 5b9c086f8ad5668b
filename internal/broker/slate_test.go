package broker

// Tests for the MCKP slate serving path: bit-exact equivalence with the
// legacy scan on a_i=1 all-fixed fleets, knapsack edge cases on the serving
// path, auction-pricing properties, WAL crash recovery with escrow, and
// the concurrent escrow soak the -race gate runs.

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/obs"
	"muaa/internal/stats"
	"muaa/internal/workload"
)

// registerLoad registers every campaign of a load (billing included) and
// fails the test on error.
func registerLoad(t testing.TB, b *Broker, specs []workload.BrokerCampaign) {
	t.Helper()
	for _, c := range specs {
		if _, err := b.RegisterCampaignSpec(CampaignSpec{
			Loc: c.Loc, Radius: c.Radius, Budget: c.Budget, Tags: c.Tags,
			Billing: c.Billing,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// applyBilledOp maps one billed-load op onto broker calls, maintaining the
// open escrowed-offer set OpConvert draws from. Returns whether the op
// appended a WAL record (a conversion miss doesn't).
func applyBilledOp(t *testing.T, b *Broker, op workload.BrokerOp, open *[]uint64) bool {
	t.Helper()
	switch op.Kind {
	case workload.OpArrival:
		offers, err := b.Arrive(Arrival{
			Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb,
			Interests: op.Interests, Hour: op.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range offers {
			if o.ID != 0 {
				*open = append(*open, o.ID)
			}
		}
		return true
	case workload.OpConvert:
		if len(*open) == 0 {
			return false
		}
		i := int(op.Pick % uint64(len(*open)))
		id := (*open)[i]
		*open = append((*open)[:i], (*open)[i+1:]...)
		if _, err := b.Convert(id, ""); err != nil {
			// Evicted holds are part of the contract; anything else is a bug.
			if err != ErrOfferUnknown {
				t.Fatal(err)
			}
			return false
		}
		return true
	default:
		return applyLoadOp(t, b, op)
	}
}

// TestSlateEquivalenceSerial is the tentpole's equivalence pin: with every
// arrival at capacity 1 and every campaign on fixed-cost billing, a broker
// forced onto the slate path (Config.Slate) must take bit-identical
// decisions to the legacy scan — same offers field for field, same final
// campaign states, counters and γ estimator.
func TestSlateEquivalenceSerial(t *testing.T) {
	lcfg := workload.DefaultBrokerLoadConfig(24, 2500, 5)
	lcfg.Capacity = stats.Range{Lo: 1, Hi: 1}
	specs, stream, err := workload.BrokerLoad(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{AdTypes: workload.DefaultAdTypes()}},
		{"paced", Config{AdTypes: workload.DefaultAdTypes(), Pacing: 1.25}},
		{"fixed_g", Config{AdTypes: workload.DefaultAdTypes(), G: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			legacy, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			scfg := tc.cfg
			scfg.Slate = true
			slate, err := New(scfg)
			if err != nil {
				t.Fatal(err)
			}
			registerLoad(t, legacy, specs)
			registerLoad(t, slate, specs)
			for i, op := range stream {
				if op.Kind != workload.OpArrival {
					applyLoadOp(t, legacy, op)
					applyLoadOp(t, slate, op)
					continue
				}
				a := Arrival{Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb,
					Interests: op.Interests, Hour: op.Hour}
				lo, err := legacy.Arrive(a)
				if err != nil {
					t.Fatal(err)
				}
				so, err := slate.Arrive(a)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(lo, so) {
					t.Fatalf("op %d: offers diverge\nlegacy: %+v\nslate:  %+v", i, lo, so)
				}
			}
			if ls, ss := legacy.Stats(), slate.Stats(); ls != ss {
				t.Fatalf("stats diverge\nlegacy: %+v\nslate:  %+v", ls, ss)
			}
			if !reflect.DeepEqual(legacy.Campaigns(), slate.Campaigns()) {
				t.Fatal("campaign states diverge")
			}
		})
	}
}

// slateFleet registers n campaigns in a ring around (0.5, 0.5), all
// reachable from the center, with the given billing contract.
func slateFleet(t *testing.T, b *Broker, n int, billing model.Billing) {
	t.Helper()
	for i := 0; i < n; i++ {
		x := 0.5 + 0.02*float64(i%5)
		y := 0.5 + 0.02*float64(i/5)
		if _, err := b.RegisterCampaignSpec(CampaignSpec{
			Loc: geo.Point{X: x, Y: y}, Radius: 0.3, Budget: 1e6,
			Tags: []float64{1, 0.5}, Billing: billing,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func slateArrival(capacity int) Arrival {
	return Arrival{Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: capacity,
		ViewProb: 0.8, Interests: []float64{0.9, 0.4}, Hour: 12}
}

// TestSlateZeroCapacity: an a_i=0 arrival on the slate path is counted but
// never scanned — no offers, no panic, no money moved.
func TestSlateZeroCapacity(t *testing.T) {
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Slate: true})
	if err != nil {
		t.Fatal(err)
	}
	slateFleet(t, b, 4, model.Billing{Model: model.BillingCPM, ReserveECPM: 1})
	offers, err := b.Arrive(slateArrival(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 0 {
		t.Fatalf("zero-capacity arrival got %d offers", len(offers))
	}
	st := b.Stats()
	if st.Arrivals != 1 || st.OffersPushed != 0 || st.BudgetSpent != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSlateCapacityExceedsCandidates: with more slots than admitted
// classes, the solver serves every class exactly once — one offer per
// campaign, no duplicates, no phantom slots.
func TestSlateCapacityExceedsCandidates(t *testing.T) {
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Slate: true})
	if err != nil {
		t.Fatal(err)
	}
	slateFleet(t, b, 3, model.Billing{Model: model.BillingCPM, ReserveECPM: 1})
	offers, err := b.Arrive(slateArrival(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) == 0 || len(offers) > 3 {
		t.Fatalf("capacity 16 over 3 candidates produced %d offers", len(offers))
	}
	seen := map[int32]bool{}
	for _, o := range offers {
		if seen[o.Campaign] {
			t.Fatalf("campaign %d served twice in one slate", o.Campaign)
		}
		seen[o.Campaign] = true
	}
}

// TestSlateUnboundedCapacity: the slate resolver must take the largest
// capacity the door admits (math.MaxInt32; math.MaxInt once reached the
// solver, overflowed its shortlist bound and panicked under the shard lock).
// It must answer exactly as a capacity that merely exceeds the candidate set
// does.
func TestSlateUnboundedCapacity(t *testing.T) {
	run := func(capacity int) []Offer {
		b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Slate: true})
		if err != nil {
			t.Fatal(err)
		}
		slateFleet(t, b, 5, model.Billing{Model: model.BillingCPM, ReserveECPM: 1})
		offers, err := b.Arrive(slateArrival(capacity))
		if err != nil {
			t.Fatal(err)
		}
		return offers
	}
	want, got := run(16), run(math.MaxInt32)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("capacity MaxInt32 served %v, capacity 16 served %v", got, want)
	}
}

// TestSlateAllBelowReserve: when every bid is reserve-priced out, the
// arrival serves nothing and the scan tallies the candidates as
// below_reserve (not unaffordable or below_threshold).
func TestSlateAllBelowReserve(t *testing.T) {
	reg := obs.NewRegistry()
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Max catalog bid is 3000 eCPM (cost 3 × 1000); a 1e6 reserve prices
	// every item out of its own auction.
	slateFleet(t, b, 4, model.Billing{Model: model.BillingCPM, ReserveECPM: 1e6})
	for _, capacity := range []int{1, 3} {
		offers, err := b.Arrive(slateArrival(capacity))
		if err != nil {
			t.Fatal(err)
		}
		if len(offers) != 0 {
			t.Fatalf("capacity %d: reserve-priced fleet served %d offers", capacity, len(offers))
		}
	}
	var sb strings.Builder
	reg.WriteText(&sb)
	scrape := sb.String()
	if !strings.Contains(scrape, `muaa_broker_scan_outcomes_total{outcome="below_reserve"} 8`) {
		t.Fatalf("below_reserve counter missing or wrong:\n%s", scrape)
	}
	if b.Stats().BudgetSpent != 0 {
		t.Fatal("reserve-priced fleet spent money")
	}
}

// TestSlateSecondPriceBounds is the auction property pin: on a mixed fleet,
// every auction charge obeys reserve ≤ charge ≤ own bid (second price,
// floored at reserve, capped at first price), and deferred holds equal
// charge/1000/rate.
func TestSlateSecondPriceBounds(t *testing.T) {
	lcfg := workload.BilledBrokerLoadConfig(24, 3000, 17)
	specs, stream, err := workload.BrokerLoad(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, b, specs)
	adTypes := workload.DefaultAdTypes()
	checked := 0
	var open []uint64
	for _, op := range stream {
		if op.Kind != workload.OpArrival {
			applyBilledOp(t, b, op, &open)
			continue
		}
		offers, err := b.Arrive(Arrival{Loc: op.Loc, Capacity: op.Capacity,
			ViewProb: op.ViewProb, Interests: op.Interests, Hour: op.Hour})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range offers {
			if o.ID != 0 {
				open = append(open, o.ID)
			}
			if o.Model == model.BillingFixed {
				if o.ChargeECPM != 0 || o.Hold != 0 || o.ID != 0 {
					t.Fatalf("fixed offer carries auction fields: %+v", o)
				}
				continue
			}
			bi := specs[o.Campaign].Billing
			bid := bi.BidECPM(adTypes[o.AdType].Cost)
			if o.ChargeECPM < bi.ReserveECPM-1e-9 || o.ChargeECPM > bid+1e-9 {
				t.Fatalf("charge %g outside [reserve %g, bid %g] for %+v",
					o.ChargeECPM, bi.ReserveECPM, bid, o)
			}
			if bi.Model.Deferred() {
				if want := o.ChargeECPM / 1000 / bi.EventRate; math.Abs(o.Hold-want) > 1e-12 {
					t.Fatalf("hold %g != charge/1000/rate %g", o.Hold, want)
				}
				if o.Cost != 0 {
					t.Fatalf("deferred offer charged at offer time: %+v", o)
				}
			} else if want := o.ChargeECPM / 1000; math.Abs(o.Cost-want) > 1e-12 {
				t.Fatalf("cpm cost %g != charge/1000 %g", o.Cost, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("property vacuous: no auction offers served")
	}
}

// billedInvariants checks the money conservation laws on a broker serving
// billed traffic: no campaign overspends budget even counting its escrow,
// escrow is non-negative, and the per-campaign books sum to the global
// counters.
func billedInvariants(t *testing.T, b *Broker) {
	t.Helper()
	st := b.Stats()
	var spent, escrow, converted float64
	var conversions int64
	for _, c := range b.Campaigns() {
		if c.Escrow < -1e-9 {
			t.Errorf("campaign %d negative escrow %g", c.ID, c.Escrow)
		}
		if c.Spent+c.Escrow > c.Budget+1e-9 {
			t.Errorf("campaign %d spent %g + escrow %g exceeds budget %g",
				c.ID, c.Spent, c.Escrow, c.Budget)
		}
		spent += c.Spent
		escrow += c.Escrow
		converted += c.Converted
		conversions += c.Conversions
	}
	if math.Abs(spent-st.BudgetSpent) > 1e-6 {
		t.Errorf("per-campaign spend %g disagrees with counter %g", spent, st.BudgetSpent)
	}
	if math.Abs(escrow-st.EscrowHeld) > 1e-6 {
		t.Errorf("per-campaign escrow %g disagrees with held counter %g", escrow, st.EscrowHeld)
	}
	if math.Abs(converted-st.ConversionRevenue) > 1e-6 {
		t.Errorf("per-campaign conversions %g disagree with counter %g", converted, st.ConversionRevenue)
	}
	if conversions != st.Conversions {
		t.Errorf("conversion counts disagree: %d vs %d", conversions, st.Conversions)
	}
}

// TestSlateWALRecovery pins WAL + snapshot bit-exactness: a billed
// stream (CPM charges, CPC escrow, conversions) through a crash and then a
// clean snapshot reboot must recover every counter and campaign field —
// escrow, converted revenue, open offers — bit for bit.
func TestSlateWALRecovery(t *testing.T) {
	specs, stream, err := workload.BrokerLoad(workload.BilledBrokerLoadConfig(16, 1500, 23))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{AdTypes: workload.DefaultAdTypes(), DataDir: dir, WAL: crashWAL()}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, b, specs)
	// Stop converting over the last fifth of the stream so holds survive to
	// the crash point — otherwise the convert ops drain every open offer.
	cutoff := len(stream) * 4 / 5
	var open []uint64
	for i, op := range stream {
		if op.Kind == workload.OpConvert && i >= cutoff {
			continue
		}
		applyBilledOp(t, b, op, &open)
	}
	preStats, preCampaigns := b.Stats(), b.Campaigns()
	if preStats.EscrowHeld <= 0 || preStats.Conversions == 0 || len(open) == 0 {
		t.Fatalf("load exercised no escrow: %+v, %d open", preStats, len(open))
	}

	// Crash (no Close) → replay the log.
	rb, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if got := rb.Stats(); got != preStats {
		t.Fatalf("recovered stats %+v != pre-crash %+v", got, preStats)
	}
	if !reflect.DeepEqual(rb.Campaigns(), preCampaigns) {
		t.Fatal("recovered campaigns diverge from pre-crash state")
	}
	billedInvariants(t, rb)

	// The recovered escrow table must still serve conversions: every open
	// offer collected pre-crash remains convertible exactly once.
	if len(open) == 0 {
		t.Fatal("no open offers survived the stream")
	}
	if _, err := rb.Convert(open[0], "post-crash"); err != nil {
		t.Fatalf("converting recovered offer %d: %v", open[0], err)
	}
	if _, err := rb.Convert(open[0], "post-crash-2"); err != ErrOfferUnknown {
		t.Fatalf("double conversion after recovery: %v", err)
	}

	// Clean close → snapshot → reboot must load it without replay.
	postStats, postCampaigns := rb.Stats(), rb.Campaigns()
	if err := rb.Close(); err != nil {
		t.Fatal(err)
	}
	rb2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rb2.Close()
	if info := rb2.RecoveryStats(); !info.SnapshotLoaded || info.RecordsReplayed != 0 {
		t.Fatalf("clean reboot should load snapshot only, got %+v", info)
	}
	if got := rb2.Stats(); got != postStats {
		t.Fatalf("snapshot reboot stats %+v != pre-close %+v", got, postStats)
	}
	if !reflect.DeepEqual(rb2.Campaigns(), postCampaigns) {
		t.Fatal("snapshot reboot campaigns diverge")
	}
	// The idempotency window survived the snapshot: the pre-close key still
	// conflicts, and the remaining open offers still convert.
	if _, err := rb2.Convert(999999, "post-crash"); err != ErrDuplicateEvent {
		t.Fatalf("idempotency window lost in snapshot: %v", err)
	}
	converted := false
	for _, id := range open[1:] {
		if _, err := rb2.Convert(id, ""); err == nil {
			converted = true
			break
		}
	}
	if !converted && len(open) > 1 {
		t.Fatal("no recovered open offer was convertible after snapshot reboot")
	}
	billedInvariants(t, rb2)
}

// TestSlateTornTailRecovery is the billed torn-tail property test: cut the
// billed log at arbitrary byte offsets, recover, and require the recovered
// state to sit exactly on the never-crashed reference trajectory after
// RecordsReplayed mutations, with the escrow conservation laws intact at
// every cut.
func TestSlateTornTailRecovery(t *testing.T) {
	const campaigns, ops, seed = 12, 1000, 31
	specs, stream, err := workload.BrokerLoad(workload.BilledBrokerLoadConfig(campaigns, ops, seed))
	if err != nil {
		t.Fatal(err)
	}

	// Reference trajectory on an in-memory broker: serial determinism makes
	// its offer IDs coincide with the durable run's.
	ref, err := newMemory(Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		t.Fatal(err)
	}
	trajectory := []refState{{stats: ref.Stats(), campaigns: ref.Campaigns()}}
	snap := func() { trajectory = append(trajectory, refState{stats: ref.Stats(), campaigns: ref.Campaigns()}) }
	for _, c := range specs {
		if _, err := ref.RegisterCampaignSpec(CampaignSpec{
			Loc: c.Loc, Radius: c.Radius, Budget: c.Budget, Tags: c.Tags, Billing: c.Billing,
		}); err != nil {
			t.Fatal(err)
		}
		snap()
	}
	var refOpen []uint64
	for _, op := range stream {
		if applyBilledOp(t, ref, op, &refOpen) {
			snap()
		}
	}

	srcDir := t.TempDir()
	cfg := Config{AdTypes: workload.DefaultAdTypes(), DataDir: srcDir, WAL: crashWAL()}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, b, specs)
	var open []uint64
	for _, op := range stream {
		applyBilledOp(t, b, op, &open)
	}

	segs, err := filepath.Glob(filepath.Join(srcDir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (err %v)", segs, err)
	}
	segName := filepath.Base(segs[0])
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRand(99)
	cuts := []int{0} // clean kill first, then random torn tails
	for i := 0; i < 12; i++ {
		cuts = append(cuts, 1+rng.Intn(len(full)/4))
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		copyFile(t, filepath.Join(srcDir, "snapshot"), filepath.Join(dir, "snapshot"))
		if err := os.WriteFile(filepath.Join(dir, segName), full[:len(full)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.DataDir = dir
		rb, err := New(rcfg)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		info := rb.RecoveryStats()
		if info.RecordsReplayed >= len(trajectory) {
			t.Fatalf("cut %d: replayed %d records, reference has %d states",
				cut, info.RecordsReplayed, len(trajectory))
		}
		want := trajectory[info.RecordsReplayed]
		if got := rb.Stats(); got != want.stats {
			t.Fatalf("cut %d: recovered stats %+v != reference %+v after %d records",
				cut, got, want.stats, info.RecordsReplayed)
		}
		if got := rb.Campaigns(); !reflect.DeepEqual(got, want.campaigns) {
			t.Fatalf("cut %d: recovered campaigns diverge after %d records", cut, info.RecordsReplayed)
		}
		billedInvariants(t, rb)
		if err := rb.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestSlateConcurrentEscrowSoak hammers a billed durable broker from many
// goroutines — arrivals escrowing holds, conversions draining them, stats
// and campaign reads throughout — then closes and recovers. The books must
// balance before and after; run under -race in CI, this is the lock-order
// pin for the billing layer.
func TestSlateConcurrentEscrowSoak(t *testing.T) {
	workers := 8
	opsPerWorker := 250
	if testing.Short() {
		workers, opsPerWorker = 4, 80
	}
	specs, stream, err := workload.BrokerLoad(
		workload.BilledBrokerLoadConfig(24, workers*opsPerWorker, 77))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{
		AdTypes: workload.DefaultAdTypes(), Shards: 8, DataDir: dir,
		WAL: crashWAL(),
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, b, specs)

	var mu sync.Mutex
	var open []uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(stream); i += workers {
				op := stream[i]
				switch op.Kind {
				case workload.OpArrival:
					offers, err := b.Arrive(Arrival{Loc: op.Loc, Capacity: op.Capacity,
						ViewProb: op.ViewProb, Interests: op.Interests, Hour: op.Hour})
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					for _, o := range offers {
						if o.ID != 0 {
							open = append(open, o.ID)
						}
					}
					mu.Unlock()
				case workload.OpConvert:
					mu.Lock()
					var id uint64
					if len(open) > 0 {
						i := int(op.Pick % uint64(len(open)))
						id = open[i]
						open = append(open[:i], open[i+1:]...)
					}
					mu.Unlock()
					if id != 0 {
						if _, err := b.Convert(id, ""); err != nil && err != ErrOfferUnknown {
							t.Error(err)
							return
						}
					}
				default:
					applyLoadOp(t, b, op)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	billedInvariants(t, b)
	preStats, preCampaigns := b.Stats(), b.Campaigns()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	rb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if got := rb.Stats(); got != preStats {
		t.Fatalf("recovered stats %+v != pre-close %+v", got, preStats)
	}
	if !reflect.DeepEqual(rb.Campaigns(), preCampaigns) {
		t.Fatal("recovered campaigns diverge from pre-close state")
	}
	billedInvariants(t, rb)
}

// TestSlateArriveZeroAllocs extends the zero-alloc bar to the slot-solver
// path: a forced-slate all-fixed broker serving capacity-2 arrivals must
// not allocate after warm-up — the arena owns the solver scratch too.
func TestSlateArriveZeroAllocs(t *testing.T) {
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Slate: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		x := float64(i%8)/8 + 0.05
		y := float64(i/8)/8 + 0.05
		if _, err := b.RegisterCampaign(geo.Point{X: x, Y: y}, 0.15, 1e9, []float64{1, 0.5, 1}); err != nil {
			t.Fatal(err)
		}
	}
	a := Arrival{Loc: geo.Point{X: 0.4, Y: 0.4}, Capacity: 2, ViewProb: 0.8,
		Interests: []float64{1, 0.5, 1}, Hour: 12}
	dst := make([]Offer, 0, 16)
	for i := 0; i < 16; i++ {
		out, err := b.ArriveAppend(dst[:0], a)
		if err != nil {
			t.Fatal(err)
		}
		dst = out[:0]
	}
	allocs := testing.AllocsPerRun(200, func() {
		out, err := b.ArriveAppend(dst[:0], a)
		if err != nil {
			t.Fatal(err)
		}
		dst = out[:0]
	})
	if allocs != 0 {
		t.Fatalf("slate arrival allocates %v times per op, want 0", allocs)
	}
}

// denseMarket registers the benchmark's `dense` fleet — 8 192 campaigns at
// twice the default radii, ≈260 covering each arrival, budgets that never
// exhaust, the cpm/cpc/fixed mix unless fixed — and returns its pure-arrival
// stream.
func denseMarket(tb testing.TB, b *Broker, fixed bool) []Arrival {
	tb.Helper()
	cfg := workload.BilledBrokerLoadConfig(8192, 4096, 1)
	cfg.ArrivalFrac, cfg.ConvertFrac, cfg.TopUpFrac, cfg.PauseFrac = 1, 0, 0, 0
	cfg.Radius.Lo, cfg.Radius.Hi = 2*cfg.Radius.Lo, 2*cfg.Radius.Hi
	cfg.Budget.Lo, cfg.Budget.Hi = 1e4*cfg.Budget.Lo, 1e4*cfg.Budget.Hi
	fleet, ops, err := workload.BrokerLoad(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if fixed {
		for i := range fleet {
			fleet[i].Billing = model.Billing{}
		}
	}
	registerLoad(tb, b, fleet)
	arrivals := make([]Arrival, len(ops))
	for i, op := range ops {
		arrivals[i] = Arrival{Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb,
			Interests: op.Interests, Hour: op.Hour}
	}
	return arrivals
}

// TestSlateArriveZeroAllocsDense holds the same bar in a dense market, where
// the grid scan, the prepared scorer and the solver's shortlist all run over
// hundreds of candidates per arrival: once the arena has seen the stream,
// serving it again allocates nothing.
func TestSlateArriveZeroAllocsDense(t *testing.T) {
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Slate: true, Funnel: FunnelConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := denseMarket(t, b, true)[:64]
	dst := make([]Offer, 0, 16)
	serve := func() {
		for _, a := range arrivals {
			out, err := b.ArriveAppend(dst[:0], a)
			if err != nil {
				t.Fatal(err)
			}
			dst = out[:0]
		}
	}
	serve() // warm the arenas' high-water marks
	if gathered := b.funnel.gathered.Load() / uint64(len(arrivals)); gathered < 200 {
		t.Fatalf("dense market gathers %d candidates per arrival, want ≥ 200", gathered)
	}
	if allocs := testing.AllocsPerRun(5, serve); allocs != 0 {
		t.Fatalf("dense slate stream allocates %v times per pass, want 0", allocs)
	}

	// A campaign registered after the arenas warmed: id 8 192 is one past what
	// their id bitsets cover, and its run lands in a vendor slab that has
	// regrown many times since the first. It must be gathered and scanned last
	// — by the stripe arena and by Explain's private one — and once the
	// bitsets have regrown the stream allocates nothing again: the slab is the
	// registration's to grow, never the arrival's.
	late, err := b.RegisterCampaign(arrivals[0].Loc, 0.01, 1e9, arrivals[0].Interests)
	if err != nil || late != 8192 {
		t.Fatalf("late registration: id %d, %v", late, err)
	}
	if fl := b.dir.Load(); len(fl.vendor(late)) != len(arrivals[0].Interests) || fl.off[late+1] != len(fl.d) {
		t.Fatalf("late registration's slab run: %d tags ending at %d of %d", len(fl.vendor(late)), fl.off[late+1], len(fl.d))
	}
	serve()
	if _, err := b.ArriveAppend(dst[:0], arrivals[0]); err != nil {
		t.Fatal(err)
	}
	var served []int32
	for i := range b.shards {
		if ids := b.shards[i].arena.ids; slices.Contains(ids, late) {
			served = ids
		}
	}
	rep, err := b.Explain(arrivals[0])
	if err != nil {
		t.Fatal(err)
	}
	explained := make([]int32, len(rep.Candidates))
	for i := range rep.Candidates {
		explained[i] = rep.Candidates[i].Campaign
	}
	for name, ids := range map[string][]int32{"stripe arena": served, "explain arena": explained} {
		if len(ids) < 200 || !slices.IsSorted(ids) || ids[len(ids)-1] != late {
			t.Errorf("%s after a late registration: %d ids, sorted %v, want campaign %d last", name, len(ids), slices.IsSorted(ids), late)
		}
	}
	if allocs := testing.AllocsPerRun(5, serve); allocs != 0 {
		t.Fatalf("dense slate stream allocates %v times per pass after the bitsets regrew, want 0", allocs)
	}
}

// BenchmarkArriveBatchDense is the benchmark's `dense` workload without the
// socket: batches of 64 through ArriveBatch on the billed fleet with metrics
// and the funnel on. One op is one arrival.
func BenchmarkArriveBatchDense(b *testing.B) {
	br, err := New(Config{AdTypes: workload.DefaultAdTypes(), Metrics: obs.NewRegistry(),
		Funnel: FunnelConfig{Enabled: true}})
	if err != nil {
		b.Fatal(err)
	}
	arrivals := denseMarket(b, br, false)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += 64 {
		at := done % len(arrivals)
		for _, r := range br.ArriveBatch(arrivals[at : at+64]) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}
