package broker

// Crash-recovery property for the pacing controller's state: the threshold
// boost, epoch counter, and per-campaign rate/allowance are WAL-logged as
// applied bits (RecordController) and must come back bit-exact from any crash
// point — recovery replays logged decisions, it never re-runs the control
// law.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"muaa/internal/pacing"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

// TestAuditTickerIdleDuringReplay: the audit ticker must not run while New
// replays the log. A tick mid-replay steps the controller with no WAL to
// record it, so what came back would depend on timing. The writer steps once
// and then serves a long stream; the recovering broker ticks every
// millisecond, well under the replay time. The state New recovered — its
// boot snapshot, written before any post-boot tick can land — must carry the
// writer's epoch, boost bits and every rate/allowance bit.
func TestAuditTickerIdleDuringReplay(t *testing.T) {
	const campaigns, ops, seed = 32, 30000, 5
	specs, stream, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(campaigns, ops, seed))
	if err != nil {
		t.Fatal(err)
	}
	ctl := pacing.Default()
	cfg := Config{
		AdTypes: workload.DefaultAdTypes(), AuditWindow: 256, AuditEvery: time.Hour, Controller: &ctl,
		DataDir: t.TempDir(), WAL: crashWAL(),
	}
	writer, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, writer, specs)
	if _, err := writer.PacingStep(); err != nil {
		t.Fatal(err)
	}
	feed := &opFeed{tb: t, b: writer}
	for _, op := range stream {
		feed.apply(op)
	}
	want := controllerBits(writer)

	// Crash: copy the abandoned writer's files and recover them.
	flushWAL(t, writer)
	dir := t.TempDir()
	entries, err := os.ReadDir(cfg.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		copyFile(t, filepath.Join(cfg.DataDir, e.Name()), filepath.Join(dir, e.Name()))
	}
	rcfg := cfg
	rcfg.DataDir, rcfg.AuditEvery = dir, time.Millisecond
	rb, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if d := rb.RecoveryStats().Duration; d < 5*rcfg.AuditEvery {
		t.Fatalf("recovery took %v, under 5 ticks of %v: the log is too short to test anything", d, rcfg.AuditEvery)
	}
	v, err := wal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSnapshot(v.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	got := ctlState{boostBits: s.PhiBoostBits, epoch: s.PacingEpoch}
	for _, c := range s.Campaigns {
		got.rates = append(got.rates, c.RateBits)
		got.allowances = append(got.allowances, c.AllowanceBits)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered controller state differs from the writer's:\n got %+v\nwant %+v", got, want)
	}
}

// ctlState is the controller's complete mutable state, captured as raw bits.
type ctlState struct {
	boostBits  uint64
	epoch      int64
	rates      []uint64
	allowances []uint64
}

func controllerBits(b *Broker) ctlState {
	fl := b.dir.Load()
	st := ctlState{boostBits: b.phiBoost.bits.Load(), epoch: b.pacingEpoch.Load()}
	for _, c := range fl.campaigns {
		st.rates = append(st.rates, c.rate.bits.Load())
		st.allowances = append(st.allowances, fl.row(c.id).allowance.bits.Load())
	}
	return st
}

// TestControllerCrashRecoveryProperty drives a controller-enabled durable
// broker through a seeded stream with synchronous audit+controller epochs,
// abandons it, and recovers from the full log plus a dozen random torn
// tails. At every cut the recovered broker must match the never-crashed
// in-memory reference after exactly RecordsReplayed mutations — including
// the controller bits — and hold the broker's contract.
func TestControllerCrashRecoveryProperty(t *testing.T) {
	const campaigns, ops, seed, stepEvery = 16, 1200, 13, 40
	lc := workload.DefaultBrokerLoadConfig(campaigns, ops, seed)
	specs, stream, err := workload.BrokerLoad(lc)
	if err != nil {
		t.Fatal(err)
	}
	ctl := pacing.Default()
	mkConfig := func() Config {
		c := ctl
		return Config{
			AdTypes:     workload.DefaultAdTypes(),
			AuditWindow: ops,
			AuditEvery:  time.Hour, // ticker parked; epochs are driven manually
			Controller:  &c,
		}
	}

	// Reference trajectory: (broker state, controller bits) per WAL record.
	ref, err := newMemory(mkConfig())
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		state refState
		ctl   ctlState
	}
	var trajectory []point
	snap := func() {
		checkInvariants(t, ref)
		trajectory = append(trajectory, point{
			state: refState{stats: ref.Stats(), campaigns: ref.Campaigns()},
			ctl:   controllerBits(ref),
		})
	}
	snap()

	// Durable run, mirrored op-for-op and epoch-for-epoch (abandoned, never
	// Closed). Both brokers are deterministic, so their decisions agree.
	srcDir := t.TempDir()
	cfg := mkConfig()
	cfg.DataDir = srcDir
	cfg.WAL = crashWAL()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	register := func(br *Broker, i int, spec CampaignSpec) {
		if i%4 == 0 {
			spec.Guaranteed = true
			spec.Floor = 0.3
			spec.Penalty = 2
		}
		if _, err := br.RegisterCampaignSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range specs {
		spec := CampaignSpec{Loc: c.Loc, Radius: c.Radius, Budget: c.Budget, Tags: c.Tags}
		register(ref, i, spec)
		snap()
		register(b, i, spec)
	}
	step := func(br *Broker) {
		if _, err := br.AuditNow(); err != nil {
			t.Fatal(err)
		}
		if _, err := br.PacingStep(); err != nil {
			t.Fatal(err)
		}
	}
	arrivals := 0
	refFeed := &opFeed{tb: t, b: ref, logged: snap}
	feed := &opFeed{tb: t, b: b}
	for _, op := range stream {
		refFeed.apply(op)
		feed.apply(op)
		if op.Kind == workload.OpArrival {
			if arrivals++; arrivals%stepEvery == 0 {
				step(ref)
				snap() // one RecordController record per epoch
				step(b)
			}
		}
	}
	if ref.pacingEpoch.Load() == 0 {
		t.Fatal("reference controller never stepped; test is vacuous")
	}
	flushWAL(t, b)

	rcfg := mkConfig()
	rcfg.WAL = crashWAL()
	tornTails(t, srcDir, rcfg, 31, func(cut int, rb *Broker, n int) {
		if n >= len(trajectory) {
			t.Fatalf("cut %d: replayed %d records, reference has %d states", cut, n, len(trajectory))
		}
		want := trajectory[n]
		if got := rb.Stats(); got != want.state.stats {
			t.Fatalf("cut %d: recovered stats %+v != reference %+v after %d records", cut, got, want.state.stats, n)
		}
		if got := rb.Campaigns(); !reflect.DeepEqual(got, want.state.campaigns) {
			t.Fatalf("cut %d: recovered campaigns diverge from reference after %d records", cut, n)
		}
		if got := controllerBits(rb); !reflect.DeepEqual(got, want.ctl) {
			t.Fatalf("cut %d: controller state not bit-exact after %d records:\n got %+v\nwant %+v", cut, got, want.ctl, n)
		}
	})
}
