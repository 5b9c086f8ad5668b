package broker

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/obs"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

// crashWAL is the WAL tuning every crash test uses: no fsync (the page cache
// is enough for a process crash) and no automatic snapshots (an abandoned
// instance must never compact the directory a recovery is reading).
func crashWAL() wal.Options {
	return wal.Options{Sync: wal.SyncNone, SnapshotEvery: -1}
}

// recovery is the broker_recovery event a durable boot logs.
type recovery struct {
	SnapshotLoaded  bool    `json:"snapshot_loaded"`
	RecordsReplayed int     `json:"records_replayed"`
	Truncated       bool    `json:"truncated"`
	DurationMS      float64 `json:"duration_ms"`
}

// bootLogged is New with cfg.Logger writing JSON lines to a buffer. It returns
// the broker and the broker_recovery event its boot logged; ok is false when
// it logged none, as an in-memory boot does.
func bootLogged(t testing.TB, cfg Config) (b *Broker, ev recovery, ok bool) {
	t.Helper()
	var logs lockedBuffer
	cfg.Logger = slog.New(slog.NewJSONHandler(&logs, nil))
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(logs.String(), "\n") {
		var e struct {
			Msg string `json:"msg"`
			recovery
		}
		if json.Unmarshal([]byte(line), &e) == nil && e.Msg == "broker_recovery" {
			return b, e.recovery, true
		}
	}
	return b, ev, false
}

// flushWAL leaves b's directory as a kill leaves it once the group commit
// reached the OS: it closes b's log, which writes every record b acknowledged
// to the log file and adds no snapshot. A crash test calls it before it
// abandons b or reads b's directory, since the latest records may still wait
// in the group-commit buffer; b takes no mutation after it.
func flushWAL(t testing.TB, b *Broker) {
	t.Helper()
	if err := b.wal.log.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayTranscriptRecovered renders the same transcript replayTranscript
// does, but through a crash: the stream runs on a durable broker that is
// abandoned without Close after crashAt ops (every record flushed to the
// OS — a kill at a record boundary), then a second broker recovers the
// directory and serves the rest. Byte-equality with the uninterrupted
// golden is the recovery-determinism acceptance bar. Both boots carry a
// full instrument registry, pinning that instrumentation doesn't bend
// recovery either.
func replayTranscriptRecovered(t *testing.T, cfg Config, campaigns, ops int, seed int64, crashAt int) string {
	t.Helper()
	dir := t.TempDir()
	cfg.DataDir = dir
	cfg.WAL = crashWAL()
	cfg.Metrics = obs.NewRegistry()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs, stream, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(campaigns, ops, seed))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, c := range specs {
		id, err := b.RegisterCampaign(c.Loc, c.Radius, c.Budget, c.Tags)
		if err != nil {
			t.Fatal(err)
		}
		writeRegisterLine(&sb, id, c)
	}
	for i, op := range stream[:crashAt] {
		applyTranscriptOp(t, b, &sb, i, op)
	}
	// Crash: every record flushed, no Close.
	flushWAL(t, b)
	cfg.Metrics = obs.NewRegistry()
	b2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovering after crash at op %d: %v", crashAt, err)
	}
	defer b2.Close()
	for i, op := range stream[crashAt:] {
		applyTranscriptOp(t, b2, &sb, crashAt+i, op)
	}
	writeFinalLines(&sb, b2)
	return sb.String()
}

// TestRecoveredReplayMatchesGolden is the tentpole's determinism pin: a
// broker killed mid-stream and recovered from its WAL must finish the
// golden stream byte-identically to the never-crashed reference broker —
// same offers, same γ, same adaptive-g, same final floats to the last bit.
func TestRecoveredReplayMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "replay_default.golden"))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	for _, crashAt := range []int{0, 1, 1500, 2999} {
		cfg := Config{AdTypes: workload.DefaultAdTypes()}
		got := replayTranscriptRecovered(t, cfg, 32, 3000, 42, crashAt)
		if got != string(want) {
			t.Fatalf("crash at op %d: recovered replay diverged from golden (%d vs %d bytes, first diff at byte %d)",
				crashAt, len(got), len(want), firstDiff(got, string(want)))
		}
	}
}

// TestRecoveredReplayDoubleCrash crashes twice — including once during the
// recovered instance's own appends — and still demands the golden
// transcript: recovery must compose.
func TestRecoveredReplayDoubleCrash(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "replay_default.golden"))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	dir := t.TempDir()
	cfg := Config{AdTypes: workload.DefaultAdTypes(), DataDir: dir, WAL: crashWAL()}
	specs, stream, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(32, 3000, 42))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range specs {
		id, err := b.RegisterCampaign(c.Loc, c.Radius, c.Budget, c.Tags)
		if err != nil {
			t.Fatal(err)
		}
		writeRegisterLine(&sb, id, c)
	}
	cuts := []int{700, 2100, len(stream)}
	next := 0
	for _, cut := range cuts {
		for i := next; i < cut; i++ {
			applyTranscriptOp(t, b, &sb, i, stream[i])
		}
		next = cut
		if cut == len(stream) {
			break
		}
		flushWAL(t, b)
		if b, err = New(cfg); err != nil { // crash + recover
			t.Fatalf("recovering at op %d: %v", cut, err)
		}
	}
	defer b.Close()
	writeFinalLines(&sb, b)
	if got := sb.String(); got != string(want) {
		t.Fatalf("double-crash replay diverged from golden (%d vs %d bytes, first diff at byte %d)",
			len(got), len(want), firstDiff(got, string(want)))
	}
}

// refState is one point of the never-crashed reference trajectory: the
// broker's observable state after the first n mutation records, and (where a
// test records it) the snapshot payload it would write there.
type refState struct {
	stats     Stats
	campaigns []Campaign
	snapshot  []byte
}

// TestCrashRecoveryProperty is the recovery property test: run a seeded
// BrokerLoad on a durable broker, kill it at an arbitrary point — clean
// record boundaries and torn tails cut at random byte offsets — recover,
// and require that (a) the recovered state equals the never-crashed
// reference after exactly RecordsReplayed mutations, (b) the snapshot the
// recovered broker would write is byte-identical to the reference's at that
// point — the one snapshot layout always carries every persistent field, so
// the payload fingerprints all recovered state, not just the Stats/Campaigns
// projection — and (c) the recovered broker holds its contract
// (CheckInvariants), as the reference does after every op. The reference
// trajectory is recorded from an in-memory broker applying the same stream.
// Every fleet variant runs serially and batched.
func TestCrashRecoveryProperty(t *testing.T) {
	const campaigns, ops, seed = 24, 2000, 7
	fleets := []struct {
		name  string
		load  workload.BrokerLoadConfig
		slate bool
	}{
		{"fixed", workload.DefaultBrokerLoadConfig(campaigns, ops, seed), false},
		{"forced-slate", workload.DefaultBrokerLoadConfig(campaigns, ops, seed), true},
		{"billed", workload.BilledBrokerLoadConfig(campaigns, ops, seed), false},
	}
	for _, fleet := range fleets {
		for _, batch := range []int{0, 8} {
			name := fleet.name + "/serial"
			if batch > 0 {
				name = fleet.name + "/batched"
			}
			t.Run(name, func(t *testing.T) {
				crashRecoveryProperty(t, fleet.load, Config{AdTypes: workload.DefaultAdTypes(), Slate: fleet.slate}, batch)
			})
		}
	}
}

func crashRecoveryProperty(t *testing.T, load workload.BrokerLoadConfig, cfg Config, batch int) {
	specs, stream, err := workload.BrokerLoad(load)
	if err != nil {
		t.Fatal(err)
	}

	// Reference trajectory, one refState per mutation record.
	ref, err := newMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var trajectory []refState
	snap := func() {
		checkInvariants(t, ref)
		trajectory = append(trajectory, refState{stats: ref.Stats(), campaigns: ref.Campaigns(), snapshot: ref.encodeSnapshot()})
	}
	snap()

	// One durable run to produce the log (abandoned, never Closed).
	srcDir := t.TempDir()
	cfg.DataDir, cfg.WAL = srcDir, crashWAL()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range specs {
		registerLoad(t, ref, []workload.BrokerCampaign{c})
		snap()
	}
	registerLoad(t, b, specs)
	refFeed := &opFeed{tb: t, b: ref, batch: batch, logged: snap}
	feed := &opFeed{tb: t, b: b, batch: batch}
	for _, op := range stream {
		refFeed.apply(op)
		feed.apply(op)
	}
	refFeed.flush()
	feed.flush()
	flushWAL(t, b)

	tornTails(t, srcDir, cfg, 99, func(cut int, rb *Broker, n int) {
		if n >= len(trajectory) || (cut == 0 && n != len(trajectory)-1) {
			t.Fatalf("cut %d: replayed %d records, reference has %d states", cut, n, len(trajectory))
		}
		want := trajectory[n]
		if got := rb.Stats(); got != want.stats {
			t.Fatalf("cut %d: recovered stats %+v != reference %+v after %d records", cut, got, want.stats, n)
		}
		if got := rb.Campaigns(); !reflect.DeepEqual(got, want.campaigns) {
			t.Fatalf("cut %d: recovered campaigns diverge from reference after %d records", cut, n)
		}
		if got := rb.encodeSnapshot(); !bytes.Equal(got, want.snapshot) {
			t.Fatalf("cut %d: recovered snapshot payload (%d bytes) differs from the reference's (%d bytes) after %d records, first at byte %d",
				cut, len(got), len(want.snapshot), n, firstDiff(string(got), string(want.snapshot)))
		}
	})
}

// tornTails recovers srcDir's snapshot with its one WAL segment cut back by
// nothing (a clean kill) and by 12 seeded offsets into its last quarter
// (torn tails), hands each recovered broker to check with the records it
// replayed, and holds every recovery to the contract.
func tornTails(t *testing.T, srcDir string, cfg Config, seed int64, check func(cut int, rb *Broker, replayed int)) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(srcDir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (err %v)", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	cuts := []int{0}
	for i := 0; i < 12; i++ {
		cuts = append(cuts, 1+rng.Intn(len(full)/4))
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		copyFile(t, filepath.Join(srcDir, "snapshot"), filepath.Join(dir, "snapshot"))
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), full[:len(full)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cfg.DataDir = dir
		rb, ev, _ := bootLogged(t, cfg)
		check(cut, rb, ev.RecordsReplayed)
		if err := rb.CheckInvariants(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if err := rb.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestStripeAndPageInvariance drives the crash-recovery property's billed
// load through brokers striped 1, 3, 4, 6 and 64 ways, over a fleet that spans
// two pages and keeps registering during the load, crossing re-layouts, and
// after every op requires their snapshot payloads and Stats (and every 16th op
// their Campaigns) to be bit-identical: the stripe count is serving topology,
// never state — 3 and 6 do not divide the grid's 64 cell rows, and the walk
// order must still be the same — so a row written on the wrong page, left
// unwritten under the wrong stripe's lock or lost to a re-layout shows as a
// divergence. Every hot row and walk row is one aligned line.
func TestStripeAndPageInvariance(t *testing.T) {
	const campaigns, late, ops, seed = 1100, 400, 800, 7
	if unsafe.Sizeof(hotRow{}) != 64 || unsafe.Sizeof(walkRow{}) != 64 {
		t.Fatalf("hot row %d bytes, walk row %d: want 64 each", unsafe.Sizeof(hotRow{}), unsafe.Sizeof(walkRow{}))
	}
	specs, stream, err := workload.BrokerLoad(workload.BilledBrokerLoadConfig(campaigns, ops, seed))
	if err != nil {
		t.Fatal(err)
	}
	var feeds []*opFeed
	for _, shards := range []int{1, 3, 4, 6, 64} {
		b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		registerLoad(t, b, specs)
		feeds = append(feeds, &opFeed{tb: t, b: b})
	}
	ref := feeds[0].b
	layouts, laid := 0, ref.dir.Load().laid
	for i, op := range stream {
		if i < late {
			// A late registration before each of the first late ops: a spec
			// again, mirrored, so the fleet grows under the load and re-lays
			// itself more than once.
			c := specs[i%campaigns]
			spec := CampaignSpec{Loc: geo.Point{X: 1 - c.Loc.X, Y: c.Loc.Y}, Radius: c.Radius, Budget: c.Budget,
				Tags: c.Tags, Billing: c.Billing}
			for _, d := range feeds {
				if _, err := d.b.RegisterCampaignSpec(spec); err != nil {
					t.Fatal(err)
				}
			}
			if fl := ref.dir.Load(); fl.laid != laid {
				layouts, laid = layouts+1, fl.laid
			}
		}
		for _, d := range feeds {
			d.apply(op)
		}
		// The snapshot payload carries every campaign's state, so the
		// lock-free Campaigns view, the costly compare, is taken every 16th
		// op and after the last.
		want, stats := ref.encodeSnapshot(), ref.Stats()
		var list []Campaign
		if i%16 == 0 || i == len(stream)-1 {
			list = ref.Campaigns()
		}
		for _, d := range feeds[1:] {
			if got := d.b.encodeSnapshot(); !bytes.Equal(got, want) {
				t.Fatalf("op %d: %d stripes' snapshot differs from 1 stripe's at byte %d", i, len(d.b.shards), firstDiff(string(got), string(want)))
			}
			if got := d.b.Stats(); got != stats {
				t.Fatalf("op %d: %d stripes' stats %+v, 1 stripe's %+v", i, len(d.b.shards), got, stats)
			}
			if list != nil && !reflect.DeepEqual(d.b.Campaigns(), list) {
				t.Fatalf("op %d: %d stripes' campaigns differ from 1 stripe's", i, len(d.b.shards))
			}
		}
	}
	if layouts < 2 {
		t.Fatalf("the late registrations crossed %d re-layouts, want at least 2", layouts)
	}
	for _, d := range feeds {
		for _, p := range d.b.dir.Load().pages {
			for _, at := range []uintptr{uintptr(unsafe.Pointer(&p.rows[0])), uintptr(unsafe.Pointer(&p.walk[0]))} {
				if at%64 != 0 {
					t.Fatalf("a page's rows start at %#x, not on a 64-byte line", at)
				}
			}
		}
	}
	served, fl := 0, ref.dir.Load()
	for _, c := range ref.Campaigns() {
		if fl.rowOf[c.ID] >= 1<<pageBits && c.Spent+c.Escrow > 0 {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no campaign on the second page was ever charged: the load never crossed the page boundary")
	}
	for _, d := range feeds {
		checkInvariants(t, d.b)
	}
}

// TestForcedSlateRevenueSurvivesRecovery: a forced-slate (Config.Slate)
// all-fixed fleet charges auction-resolved fixed-cost offers, which feed
// billing.revenue[fixed]; the counters must come back bit for bit from a
// crash (WAL replay) and from a clean Close (snapshot).
func TestForcedSlateRevenueSurvivesRecovery(t *testing.T) {
	specs, stream, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(16, 400, 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{AdTypes: workload.DefaultAdTypes(), Slate: true, DataDir: t.TempDir(), WAL: crashWAL()}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, b, specs)
	feed := &opFeed{tb: t, b: b}
	for _, op := range stream {
		feed.apply(op)
	}
	revenueBits := func(b *Broker) (bits [model.NumBillingModels]uint64) {
		for m := range bits {
			bits[m] = b.billing.revenue[m].bits.Load()
		}
		return bits
	}
	want := revenueBits(b)
	if got := b.billing.revenue[model.BillingFixed].Load(); got <= 0 || got != b.Stats().BudgetSpent {
		t.Fatalf("forced-slate fixed revenue %g, budget spent %g: the load must charge", got, b.Stats().BudgetSpent)
	}

	flushWAL(t, b)
	crashed, err := New(cfg) // no Close: replay the log
	if err != nil {
		t.Fatal(err)
	}
	if got := revenueBits(crashed); got != want {
		t.Fatalf("revenue after crash recovery %v, want %v", got, want)
	}
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}
	rebooted, info, _ := bootLogged(t, cfg) // clean Close: load the snapshot
	defer rebooted.Close()
	if !info.SnapshotLoaded || info.RecordsReplayed != 0 {
		t.Fatalf("clean reboot should load snapshot only, got %+v", info)
	}
	if got := revenueBits(rebooted); got != want {
		t.Fatalf("revenue after snapshot reboot %v, want %v", got, want)
	}
}

// TestSnapshotCycleRecovery runs with an aggressive snapshot cadence so
// several compactions happen mid-stream, closes cleanly, and reopens: the
// reboot must load state entirely from the final snapshot (zero records
// replayed) and match the in-memory reference bit for bit.
func TestSnapshotCycleRecovery(t *testing.T) {
	const campaigns, ops, seed = 16, 1200, 11
	specs, stream, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(campaigns, ops, seed))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newMemory(Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := Config{
		AdTypes: workload.DefaultAdTypes(),
		DataDir: dir,
		WAL:     wal.Options{Sync: wal.SyncNone, SnapshotEvery: 64},
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, ref, specs)
	registerLoad(t, b, specs)
	refFeed := &opFeed{tb: t, b: ref}
	feed := &opFeed{tb: t, b: b}
	for _, op := range stream {
		refFeed.apply(op)
		feed.apply(op)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if seq := walSegmentCount(t, dir); seq != 1 {
		t.Fatalf("after close: %d segments on disk, compaction should leave 1", seq)
	}

	rb, info, _ := bootLogged(t, cfg)
	defer rb.Close()
	if !info.SnapshotLoaded || info.RecordsReplayed != 0 || info.Truncated {
		t.Fatalf("clean reboot should load snapshot only, got %+v", info)
	}
	if got, want := rb.Stats(), ref.Stats(); got != want {
		t.Fatalf("rebooted stats %+v != reference %+v", got, want)
	}
	if !reflect.DeepEqual(rb.Campaigns(), ref.Campaigns()) {
		t.Fatal("rebooted campaigns diverge from reference")
	}
}

// TestDurableConcurrentSoak hammers a durable broker from many goroutines
// with an aggressive snapshot cadence, so background compactions (which
// quiesce every shard) race live traffic throughout. After a clean close
// and a reboot the recovered books must balance: counters equal to the
// pre-close instance, and the contract holding throughout the traffic and
// after recovery. Run under -race in CI — this is the lock-order pin for the
// durability layer.
func TestDurableConcurrentSoak(t *testing.T) {
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	opsPerWorker := 300
	if testing.Short() {
		workers, opsPerWorker = 4, 80
	}
	const campaigns = 32
	specs, ops, err := workload.BrokerLoad(
		workload.DefaultBrokerLoadConfig(campaigns, workers*opsPerWorker, 4321))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{
		AdTypes: workload.DefaultAdTypes(), Shards: 8, DataDir: dir,
		WAL: wal.Options{Sync: wal.SyncNone, SnapshotEvery: 200},
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, b, specs)
	stop := invariantsDuring(t, b)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			feed := &opFeed{tb: t, b: b}
			for i := w; i < len(ops); i += workers {
				feed.apply(ops[i])
			}
		}(w)
	}
	wg.Wait()
	stop()
	if t.Failed() {
		t.FailNow()
	}
	preStats := b.Stats()
	preCampaigns := b.Campaigns()
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
	checkInvariants(t, rb)
}

// TestRecoverValidation pins the constructor contract edges.
func TestRecoverValidation(t *testing.T) {
	// A corrupt snapshot must fail recovery loudly, never silently serve
	// from empty state.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{AdTypes: workload.DefaultAdTypes(), DataDir: dir}); err == nil {
		t.Fatal("recovery from a corrupt snapshot must error")
	}
}

// TestInMemoryCloseNoop: Close on an in-memory broker is a safe no-op.
func TestInMemoryCloseNoop(t *testing.T) {
	b, got, logged := bootLogged(t, Config{AdTypes: workload.DefaultAdTypes()})
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if logged {
		t.Fatalf("in-memory broker logged a recovery %+v", got)
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func walSegmentCount(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}

// TestLoggedCapacityIsAdmittedCapacity: the arrivals record stores the
// capacity in 32 bits, so the door must not admit one that does not fit —
// a capacity of 1<<32 once served five offers, was logged as capacity 0 and
// left ReplayAudit reporting offers from an arrival it did not audit. The
// largest capacity the door admits must come back from the log unchanged.
func TestLoggedCapacityIsAdmittedCapacity(t *testing.T) {
	dir := t.TempDir()
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), DataDir: dir, WAL: auditWAL()})
	if err != nil {
		t.Fatal(err)
	}
	slateFleet(t, b, 5, model.Billing{})
	if offers, err := b.Arrive(slateArrival(1 << 32)); err == nil {
		t.Fatalf("capacity 1<<32 was admitted and served %d offers", len(offers))
	}
	offers, err := b.Arrive(slateArrival(math.MaxInt32))
	if err != nil || len(offers) < 2 {
		t.Fatalf("capacity MaxInt32: %d offers, %v; want several", len(offers), err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	v, err := wal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logged []ArrivalRecord
	for _, rec := range v.Records {
		d, err := DecodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		logged = append(logged, d.Arrivals...)
	}
	if len(logged) != 1 || logged[0].Customer.Capacity != math.MaxInt32 || len(logged[0].Offers) != len(offers) {
		t.Fatalf("log holds %+v, want the one admitted arrival at capacity MaxInt32 with its %d offers", logged, len(offers))
	}
	rep, err := ReplayAudit(dir, AuditConfig{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AuditedArrivals != 1 || rep.Offers != len(offers) || !(rep.OnlineUtility > 0) {
		t.Fatalf("audit saw %d audited arrivals, %d offers, utility %g", rep.AuditedArrivals, rep.Offers, rep.OnlineUtility)
	}
}
