package broker

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"muaa/internal/wal"
)

// durable is the broker's durability sidecar: the open log, the snapshot
// cadence bookkeeping and the background compaction goroutine. nil on an
// in-memory broker — every hot-path hook is gated on that one pointer.
type durable struct {
	log     *wal.Log
	cadence int // records between automatic snapshots; 0 disables

	snapCh chan struct{} // nudges the snapshot loop (capacity 1)
	stopCh chan struct{}
	doneCh chan struct{}
	closed atomic.Bool
}

// recoverDurable opens (creating if necessary) the durability directory
// cfg.DataDir and rebuilds the broker recorded there: latest snapshot first,
// then every intact WAL record in append order. The recovered broker's Stats,
// Campaigns and subsequent decision transcript are bit-identical to the
// instance that wrote the log. The directory must have a single owner — the
// log is not advisory-locked.
func recoverDurable(cfg Config) (*Broker, error) {
	start := time.Now()
	log, v, err := wal.Open(cfg.DataDir, cfg.WAL, cfg.Metrics, cfg.Logger)
	if err != nil {
		return nil, err
	}
	b, err := newMemory(cfg)
	if err == nil {
		err = b.replay(v, nil)
	}
	if err != nil {
		log.Close()
		return nil, err
	}
	d := &durable{
		log:     log,
		cadence: cfg.WAL.SnapshotCadence(),
		snapCh:  make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	b.wal = d
	// Compact immediately when anything was replayed (or nothing was ever
	// written): boot cost is then bounded by one snapshot plus one cadence
	// window of records, no matter how many crash/restart cycles accrue.
	if len(v.Records) > 0 || v.Snapshot == nil {
		if err := b.snapshotNow(); err != nil {
			log.Close()
			return nil, fmt.Errorf("broker: boot snapshot: %w", err)
		}
	}
	replayed := len(v.Records)
	b.logger.Info("broker_recovery",
		slog.String("dir", cfg.DataDir),
		slog.Bool("snapshot_loaded", v.Snapshot != nil),
		slog.Int("records_replayed", replayed),
		slog.Bool("truncated", v.Truncated),
		slog.Float64("duration_ms", float64(time.Since(start))/float64(time.Millisecond)))
	if cfg.Metrics != nil {
		cfg.Metrics.NewGaugeFunc("muaa_broker_recovery_records",
			"WAL records replayed by the last boot's recovery.",
			func() float64 { return float64(replayed) })
	}
	// Only now, with replay and the boot snapshot done: an audit tick steps
	// the controller, and one landing mid-replay would rewrite state the log
	// is still rebuilding, with no WAL to record it.
	b.startAudit()
	go b.snapshotLoop()
	return b, nil
}

// ErrUnavailable is wrapped by every mutation a durable broker refuses once
// its log failed a write or fsync (until a restart) or was closed: HTTP 503.
var ErrUnavailable = errors.New("broker: unavailable, the write-ahead log refuses writes")

// Err is nil while the broker takes mutations, else ErrUnavailable wrapping
// the log's error (wal.Log.Err), which every mutator then returns.
func (b *Broker) Err() error {
	if b.wal == nil {
		return nil
	}
	if err := b.wal.log.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
	return nil
}

// Close makes the broker durable at rest: it stops the live-audit and
// snapshot loops, writes a final compacting snapshot and closes the log,
// after which every mutation is refused with ErrUnavailable. Idempotent; on
// an in-memory broker it only stops the audit loop.
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
// nudges it at every cadence-th record of the active segment. A failed
// rotation keeps that segment, so the next nudge comes a cadence later.
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
	return b.wal.log.Snapshot(b.encodeSnapshot())
}

// recPool recycles record-encoding buffers so a durable arrival does not
// allocate on the hot path.
var recPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// walAppend hands one encoded record to the log and returns the buffer to
// the pool. Called with the lock that serializes the recorded mutation
// still held, which is what orders records consistently with memory
// effects. A failed append is the mutation's refusal: the log's error
// (sticky from the first fault on) comes back wrapped in ErrUnavailable,
// and every later mutation is refused before it starts (Err).
func (b *Broker) walAppend(bp *[]byte) error {
	d := b.wal
	n, err := d.log.Append(*bp)
	recPool.Put(bp)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
	if d.cadence > 0 && n%d.cadence == 0 {
		select {
		case d.snapCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// logRecord appends one mutation's record — the struct DecodeRecord would
// return for it, run through the codec in write mode — under the lock that
// serializes the mutation (see walAppend).
func (b *Broker) logRecord(d *DecodedRecord) error {
	bp := recPool.Get().(*[]byte)
	c := codec{buf: (*bp)[:0]}
	c.record(d)
	*bp = c.buf
	return b.walAppend(bp)
}

// replay rebuilds the state v describes onto b, a fresh in-memory broker:
// v's snapshot unless v is the full history, then every record in append
// order through the mutators the live broker ran, so the result is
// bit-identical to the broker that wrote the log. each, when non-nil, sees
// every decoded record before it is applied. Recovery and ReplayAudit read
// the log here and nowhere else.
func (b *Broker) replay(v wal.View, each func(*DecodedRecord)) error {
	if v.Snapshot != nil && !v.FullHistory {
		if err := b.applySnapshot(v.Snapshot); err != nil {
			return fmt.Errorf("broker: replaying snapshot: %w", err)
		}
	}
	for i, rec := range v.Records {
		d, err := DecodeRecord(rec)
		if err == nil {
			if each != nil {
				each(&d)
			}
			switch d.Kind {
			case RecordRegister:
				var got int32
				got, err = b.RegisterCampaignSpec(CampaignSpec{
					Loc: d.Loc, Radius: d.Radius, Budget: d.Budget, Tags: d.Tags,
					Guaranteed: d.Guaranteed, Floor: d.Floor, Penalty: d.Penalty,
					Billing: d.Billing,
				})
				if err == nil && got != d.Campaign {
					err = fmt.Errorf("replayed registration got id %d, logged %d", got, d.Campaign)
				}
			case RecordController:
				err = b.applyController(&d)
			case RecordTopUp:
				err = b.TopUp(d.Campaign, d.Amount)
			case RecordPause:
				err = b.SetPaused(d.Campaign, d.Paused)
			case RecordArrivals:
				// In the original commit order, one body at a time — counter, γ
				// fold, then each offer's charge, the accumulator sequence the
				// live path performed — so serial and batched histories of one
				// stream recover to the same bits (TestBatchReplayBitExact).
				for j := 0; j < len(d.Arrivals) && err == nil; j++ {
					err = b.applyArrival(&d.Arrivals[j], d.Auction)
				}
			case RecordConversion:
				err = b.applyConversion(&d)
			}
		}
		if err != nil {
			return fmt.Errorf("broker: replaying record %d of %d: %w", i+1, len(v.Records), err)
		}
	}
	// Registrations re-lay the fleet as it grows, which can leave a tail of
	// appended rows; a rebuilt fleet starts laid out whole.
	b.regMu.Lock()
	defer b.regMu.Unlock()
	if fl := b.dir.Load(); fl.laid < len(fl.campaigns) {
		b.relayout()
	}
	return nil
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
		if _, err := b.lookup(e.Offers[i].Campaign); err != nil {
			return err
		}
		b.charge(b.dir.Load().row(e.Offers[i].Campaign), &e.Offers[i], auction)
	}
	return nil
}

// applyController stores one controller epoch's applied bits, never
// recomputed: replay must not depend on the control law, only on what the
// original broker applied.
func (b *Broker) applyController(d *DecodedRecord) error {
	b.pacingEpoch.Store(d.Epoch)
	b.phiBoost.bits.Store(d.BoostBits)
	for i := range d.Controller {
		e := &d.Controller[i]
		c, err := b.lookup(e.Campaign)
		if err != nil {
			return err
		}
		c.rate.bits.Store(e.RateBits)
		b.dir.Load().row(e.Campaign).allowance.bits.Store(e.AllowanceBits)
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
	if _, err := b.lookup(o.campaign); err != nil {
		return err
	}
	b.settle(b.dir.Load(), d.OfferID, o, d.EventKey)
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
	fl := b.dir.Load()
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
		Campaigns:    make([]SnapshotCampaign, len(fl.campaigns)),
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
	for i, c := range fl.campaigns {
		h, bi := fl.row(c.id), fl.billing(c.id)
		s.Campaigns[i] = SnapshotCampaign{
			ID: c.id, Loc: h.loc, Radius: c.radius,
			BudgetBits: h.budget.bits.Load(), SpentBits: h.spent.bits.Load(),
			Paused: h.paused.Load(), Tags: c.tags,
			Guaranteed: h.guaranteed, Floor: h.floor, Penalty: c.penalty,
			RateBits: c.rate.bits.Load(), AllowanceBits: h.allowance.bits.Load(),
			BillingModel:  bi.Model,
			ReserveBits:   math.Float64bits(bi.ReserveECPM),
			EventRateBits: math.Float64bits(bi.EventRate),
			EscrowBits:    h.escrow.bits.Load(),
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
		fl := b.dir.Load()
		c, h := fl.campaigns[got], fl.row(got)
		h.spent.bits.Store(sc.SpentBits)
		h.paused.Store(sc.Paused)
		c.rate.bits.Store(sc.RateBits)
		h.allowance.bits.Store(sc.AllowanceBits)
		h.escrow.bits.Store(sc.EscrowBits)
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
