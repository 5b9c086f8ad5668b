package broker

import (
	"cmp"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"muaa/internal/obs"
	"muaa/internal/wal"
)

// durable is the broker's durability sidecar: the open log, the snapshot
// cadence bookkeeping and the background compaction goroutine. nil on an
// in-memory broker — every hot-path hook is gated on that one pointer.
type durable struct {
	log        *wal.Log
	cadence    int          // records between automatic snapshots; 0 disables
	appended   atomic.Int64 // records since the last snapshot
	appendErrs atomic.Uint64

	snapCh chan struct{} // nudges the snapshot loop (capacity 1)
	stopCh chan struct{}
	doneCh chan struct{}
	closed atomic.Bool

	info RecoveryInfo
}

// RecoveryInfo describes what New rebuilt from the data directory at boot.
type RecoveryInfo struct {
	// SnapshotLoaded reports that a compacted snapshot seeded the state.
	SnapshotLoaded bool
	// RecordsReplayed is the number of WAL records applied after the
	// snapshot.
	RecordsReplayed int
	// Truncated reports that the log had a torn tail (expected after a
	// crash) which was discarded back to the last intact record.
	Truncated bool
	// Duration is the wall time of the whole rebuild.
	Duration time.Duration
}

// RecoveryStats returns how this broker was recovered; the zero value for
// an in-memory broker.
func (b *Broker) RecoveryStats() RecoveryInfo {
	if b.wal == nil {
		return RecoveryInfo{}
	}
	return b.wal.info
}

// recoverDurable opens (creating if necessary) the durability directory
// cfg.DataDir and rebuilds the broker recorded there: latest snapshot first,
// then every intact WAL record in append order. The recovered broker's Stats,
// Campaigns and subsequent decision transcript are bit-identical to the
// instance that wrote the log. The directory must have a single owner — the
// log is not advisory-locked.
func recoverDurable(cfg Config) (*Broker, error) {
	start := time.Now()
	opts := cfg.WAL
	opts.Metrics = cfg.Metrics
	opts.Logger = cfg.Logger
	log, rec, err := wal.Open(cfg.DataDir, opts)
	if err != nil {
		return nil, err
	}
	b, err := newMemory(cfg)
	if err != nil {
		log.Close()
		return nil, err
	}
	info := RecoveryInfo{Truncated: rec.Truncated}
	if rec.Snapshot != nil {
		if err := b.applySnapshot(rec.Snapshot); err != nil {
			log.Close()
			return nil, fmt.Errorf("broker: recovering snapshot: %w", err)
		}
		info.SnapshotLoaded = true
	}
	for i, r := range rec.Records {
		if err := b.applyRecord(r); err != nil {
			log.Close()
			return nil, fmt.Errorf("broker: replaying record %d of %d: %w", i+1, len(rec.Records), err)
		}
	}
	info.RecordsReplayed = len(rec.Records)

	d := &durable{
		log:     log,
		cadence: opts.SnapshotCadence(),
		snapCh:  make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	b.wal = d
	// Compact immediately when anything was replayed (or nothing was ever
	// written): boot cost is then bounded by one snapshot plus one cadence
	// window of records, no matter how many crash/restart cycles accrue.
	if len(rec.Records) > 0 || rec.Snapshot == nil {
		if err := b.snapshotNow(); err != nil {
			log.Close()
			return nil, fmt.Errorf("broker: boot snapshot: %w", err)
		}
	}
	info.Duration = time.Since(start)
	d.info = info
	b.logger.Info("broker_recovery",
		slog.String("dir", cfg.DataDir),
		slog.Bool("snapshot_loaded", info.SnapshotLoaded),
		slog.Int("records_replayed", info.RecordsReplayed),
		slog.Bool("truncated", info.Truncated),
		slog.Float64("duration_ms", float64(info.Duration)/float64(time.Millisecond)))
	if cfg.Metrics != nil {
		registerRecoveryMetrics(cfg.Metrics, b)
	}
	// Only now, with replay and the boot snapshot done: an audit tick steps
	// the controller, and one landing mid-replay would rewrite state the log
	// is still rebuilding, with no WAL to record it.
	b.startAudit()
	go b.snapshotLoop()
	return b, nil
}

func registerRecoveryMetrics(reg *obs.Registry, b *Broker) {
	d := b.wal
	reg.NewGaugeFunc("muaa_broker_recovery_records",
		"WAL records replayed by the last boot's recovery.",
		func() float64 { return float64(d.info.RecordsReplayed) })
	reg.NewCounterFunc("muaa_wal_append_errors_total",
		"Broker mutations whose WAL append failed (state diverged from disk).",
		func() float64 { return float64(d.appendErrs.Load()) })
}

// Close makes the broker durable at rest: it stops the live-audit and
// snapshot loops, writes a final compacting snapshot and closes the log.
// The caller must quiesce traffic first — a mutation racing Close can land
// in memory without reaching the log. Idempotent; on an in-memory broker it
// only stops the audit loop.
func (b *Broker) Close() error {
	if b.audit != nil {
		b.audit.stop()
	}
	d := b.wal
	if d == nil {
		return nil
	}
	if !d.closed.CompareAndSwap(false, true) {
		<-d.doneCh
		return nil
	}
	close(d.stopCh)
	<-d.doneCh
	err := b.snapshotNow()
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// snapshotLoop runs automatic compaction off the serving path: walAppend
// nudges it once a cadence worth of records has accumulated.
func (b *Broker) snapshotLoop() {
	d := b.wal
	defer close(d.doneCh)
	for {
		select {
		case <-d.stopCh:
			return
		case <-d.snapCh:
			if err := b.snapshotNow(); err != nil {
				b.logger.Error("broker_snapshot_failed",
					slog.String("error", err.Error()))
			}
		}
	}
}

// snapshotNow quiesces every mutator, encodes the full broker state and
// rotates the log onto it. Mutations are appended only while holding one of
// the locks quiesce takes, so the encoded payload reflects exactly the
// records appended so far: nothing in flight, nothing lost.
func (b *Broker) snapshotNow() error {
	defer b.quiesce()()
	err := b.wal.log.Snapshot(b.encodeSnapshot())
	b.wal.appended.Store(0)
	return err
}

// recPool recycles record-encoding buffers so a durable arrival does not
// allocate on the hot path.
var recPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// walAppend hands one encoded record to the log and returns the buffer to
// the pool. Called with the lock that serializes the recorded mutation
// still held, which is what orders records consistently with memory
// effects. An append error does not fail serving: it is counted
// (muaa_wal_append_errors_total) and the log's sticky error stops further
// appends, so the operator sees a frozen log rather than a corrupt one.
func (b *Broker) walAppend(bp *[]byte) {
	d := b.wal
	if err := d.log.Append(*bp); err != nil {
		d.appendErrs.Add(1)
	}
	recPool.Put(bp)
	if d.cadence > 0 && int(d.appended.Add(1)) >= d.cadence {
		select {
		case d.snapCh <- struct{}{}:
		default:
		}
	}
}

// logRecord appends one mutation's record — the struct DecodeRecord would
// return for it, run through the codec in write mode — under the lock that
// serializes the mutation (see walAppend).
func (b *Broker) logRecord(d *DecodedRecord) {
	bp := recPool.Get().(*[]byte)
	c := codec{buf: (*bp)[:0]}
	c.record(d)
	*bp = c.buf
	b.walAppend(bp)
}

// applyRecord replays one WAL record onto the (still-private) broker.
func (b *Broker) applyRecord(rec []byte) error {
	d, err := DecodeRecord(rec)
	if err != nil {
		return err
	}
	switch d.Kind {
	case RecordRegister:
		got, err := b.RegisterCampaignSpec(CampaignSpec{
			Loc: d.Loc, Radius: d.Radius, Budget: d.Budget, Tags: d.Tags,
			Guaranteed: d.Guaranteed, Floor: d.Floor, Penalty: d.Penalty,
			Billing: d.Billing,
		})
		if err != nil {
			return err
		}
		if got != d.Campaign {
			return fmt.Errorf("replayed registration got id %d, logged %d", got, d.Campaign)
		}
		return nil
	case RecordController:
		// Stored bits, never recomputed: replay must not depend on the
		// control law, only on what the original broker applied.
		b.pacingEpoch.Store(d.Epoch)
		b.phiBoost.bits.Store(d.BoostBits)
		for i := range d.Controller {
			e := &d.Controller[i]
			c, err := b.campaign(e.Campaign)
			if err != nil {
				return err
			}
			c.rate.bits.Store(e.RateBits)
			c.allowance.bits.Store(e.AllowanceBits)
		}
		return nil
	case RecordTopUp:
		return b.TopUp(d.Campaign, d.Amount)
	case RecordPause:
		return b.SetPaused(d.Campaign, d.Paused)
	case RecordArrivals:
		// Replay in the original commit order, one body at a time — counter,
		// γ fold, then each offer's charge, the same accumulator sequence the
		// live path performed — so serial and batched histories of one stream
		// recover to the same bits (TestBatchReplayBitExact).
		for i := range d.Arrivals {
			if err := b.applyArrival(&d.Arrivals[i], d.Auction); err != nil {
				return err
			}
		}
		return nil
	case RecordConversion:
		return b.applyConversion(&d)
	}
	return fmt.Errorf("unknown record type %d", byte(d.Kind))
}

// applyArrival folds one logged arrival into the recovering broker: the
// counter, the γ bounds, then every offer's charge in commit order, through
// the same Broker.charge the live commit used, with the auction flag the
// live commit recorded.
func (b *Broker) applyArrival(e *ArrivalRecord, auction bool) error {
	b.arrivals.Add(1)
	b.gammaMin.Min(e.GammaMin)
	b.gammaMax.Max(e.GammaMax)
	for i := range e.Offers {
		c, err := b.campaign(e.Offers[i].Campaign)
		if err != nil {
			return err
		}
		b.charge(c, &e.Offers[i], auction)
	}
	return nil
}

// applyConversion replays one conversion record through settle, the move
// Convert makes live. A serial history always finds the table entry (the
// arrivals record replayed before it); a missing entry means the log
// interleaved an eviction the record preceded, which serial replay treats
// as corruption.
func (b *Broker) applyConversion(d *DecodedRecord) error {
	o, ok := b.billing.open[d.OfferID]
	if !ok {
		return fmt.Errorf("conversion for unknown offer %d", d.OfferID)
	}
	c, err := b.campaign(o.campaign)
	if err != nil {
		return err
	}
	b.settle(c, d.OfferID, o, d.EventKey)
	return nil
}

// encodeSnapshot is the snapshot payload of the broker's current state;
// the caller quiesces every mutator (see snapshotState).
func (b *Broker) encodeSnapshot() []byte {
	s := b.snapshotState()
	c := codec{buf: make([]byte, 0, 256+len(s.Campaigns)*200)}
	c.snapshot(&s)
	return c.buf
}

// snapshotState reads the full broker state into the struct DecodeSnapshot
// returns. Called with every mutator quiesced, so the atomics are stable and
// the state is a consistent cut; every billing mutation holds a shard lock,
// so the billing sidecar is read without its mutex too.
func (b *Broker) snapshotState() SnapshotState {
	dir := b.dir.Load().campaigns
	bl := b.billing
	s := SnapshotState{
		Arrivals:     b.arrivals.Load(),
		Offers:       b.offers.Load(),
		UtilityBits:  b.utility.bits.Load(),
		SpentBits:    b.spent.bits.Load(),
		GammaMinBits: b.gammaMin.bits.Load(),
		GammaMaxBits: b.gammaMax.bits.Load(),
		PhiBoostBits: b.phiBoost.bits.Load(),
		PacingEpoch:  b.pacingEpoch.Load(),
		Campaigns:    make([]SnapshotCampaign, len(dir)),
		Billing: SnapshotBilling{
			NextID:           bl.nextID,
			EvictNext:        bl.evictNext,
			HeldBits:         bl.held.bits.Load(),
			ReleasedBits:     bl.released.bits.Load(),
			ConvertedRevBits: bl.convertedRev.bits.Load(),
			Conversions:      bl.conversions.Load(),
			Open:             make([]SnapshotOpenOffer, 0, len(bl.open)),
			// The live idempotency window, oldest first, so replaying
			// registerKeyLocked rebuilds the same FIFO.
			IdemKeys: bl.idemQ[bl.idemHead:],
		},
	}
	for i, c := range dir {
		s.Campaigns[i] = SnapshotCampaign{
			ID: c.id, Loc: c.loc, Radius: c.radius,
			BudgetBits: c.budget.bits.Load(), SpentBits: c.spent.bits.Load(),
			Paused: c.paused.Load(), Tags: c.tags,
			Guaranteed: c.guaranteed, Floor: c.floor, Penalty: c.penalty,
			RateBits: c.rate.bits.Load(), AllowanceBits: c.allowance.bits.Load(),
			BillingModel:  c.billing.Model,
			ReserveBits:   math.Float64bits(c.billing.ReserveECPM),
			EventRateBits: math.Float64bits(c.billing.EventRate),
			EscrowBits:    c.escrow.bits.Load(),
			ConvertedBits: c.converted.bits.Load(),
			Conversions:   c.conversions.Load(),
		}
	}
	sb := &s.Billing
	for m := range bl.revenue {
		sb.RevenueBits[m] = bl.revenue[m].bits.Load()
	}
	for id, o := range bl.open {
		sb.Open = append(sb.Open, SnapshotOpenOffer{ID: id, Campaign: o.campaign, Model: o.model, Hold: o.hold})
	}
	// The open table in ID order, for a deterministic payload.
	slices.SortFunc(sb.Open, func(x, y SnapshotOpenOffer) int { return cmp.Compare(x.ID, y.ID) })
	return s
}

// applySnapshot seeds an empty broker from a compacted snapshot payload.
// Campaigns re-enter through RegisterCampaignSpec (rebuilding the grids and
// maxRadius under the current shard configuration — stripe layout is
// serving topology, not persisted state), then the money atomics are
// overwritten with the recorded bits.
func (b *Broker) applySnapshot(data []byte) error {
	s, err := DecodeSnapshot(data)
	if err != nil {
		return err
	}
	for i := range s.Campaigns {
		sc := &s.Campaigns[i]
		got, err := b.RegisterCampaignSpec(CampaignSpec{
			Loc: sc.Loc, Radius: sc.Radius, Budget: sc.Budget(), Tags: sc.Tags,
			Guaranteed: sc.Guaranteed, Floor: sc.Floor, Penalty: sc.Penalty,
			Billing: sc.Billing(),
		})
		if err != nil {
			return err
		}
		if got != sc.ID {
			return fmt.Errorf("snapshot campaign %d re-registered as %d", sc.ID, got)
		}
		c := b.dir.Load().campaigns[got]
		c.spent.bits.Store(sc.SpentBits)
		c.paused.Store(sc.Paused)
		c.rate.bits.Store(sc.RateBits)
		c.allowance.bits.Store(sc.AllowanceBits)
		c.escrow.bits.Store(sc.EscrowBits)
		c.converted.bits.Store(sc.ConvertedBits)
		c.conversions.Store(sc.Conversions)
	}
	b.arrivals.Store(s.Arrivals)
	b.offers.Store(s.Offers)
	b.utility.bits.Store(s.UtilityBits)
	b.spent.bits.Store(s.SpentBits)
	b.gammaMin.bits.Store(s.GammaMinBits)
	b.gammaMax.bits.Store(s.GammaMaxBits)
	b.phiBoost.bits.Store(s.PhiBoostBits)
	b.pacingEpoch.Store(s.PacingEpoch)
	bl := b.billing
	sb := &s.Billing
	bl.nextID = sb.NextID
	bl.evictNext = sb.EvictNext
	bl.held.bits.Store(sb.HeldBits)
	bl.released.bits.Store(sb.ReleasedBits)
	bl.convertedRev.bits.Store(sb.ConvertedRevBits)
	bl.conversions.Store(sb.Conversions)
	for m := range bl.revenue {
		bl.revenue[m].bits.Store(sb.RevenueBits[m])
	}
	for i := range sb.Open {
		e := &sb.Open[i]
		bl.open[e.ID] = openOffer{campaign: e.Campaign, model: e.Model, hold: e.Hold}
	}
	bl.openCount.Store(int64(len(sb.Open)))
	for _, k := range sb.IdemKeys {
		bl.registerKeyLocked(k)
	}
	return nil
}
