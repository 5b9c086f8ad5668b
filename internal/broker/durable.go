package broker

import (
	"encoding/binary"
	"errors"
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

// The WAL record types: one current layout per logical record (DESIGN §10
// has the field tables). Each record is the delta of exactly one committed
// broker mutation, encoded little-endian with floats as IEEE-754 bits so
// replay rebuilds bit-identical state. A type byte is never reused for a
// different layout: 1, 4, 5, 6, 8, 10 and 11 named layouts that are no
// longer written or read, and DecodeRecord refuses them like any unknown
// byte.
const (
	recTopUp      byte = 2  // id, amount
	recPause      byte = 3  // id, paused flag
	recController byte = 7  // version byte, epoch, boost bits, per-campaign rate/allowance bits
	recRegister   byte = 9  // id, loc, radius, budget, class (guaranteed, floor, penalty), billing contract (model, reserve, event rate), tags
	recConversion byte = 12 // offer id, campaign, model, charge bits, idempotency key
	recArrivals   byte = 13 // count n ≥ 1, flags, then n bodies: γ bits, customer features, offers
)

// arrivalsAuction is bit 0 of a recArrivals flags byte: the arrivals were
// auction-resolved, so replay folds their immediate charges into the
// per-model revenue counters exactly as the live commit did. The other bits
// are reserved and must be zero.
const arrivalsAuction byte = 1

// controllerRecVersion is the internal version byte of recController
// payloads; bump on any layout change so old binaries fail loudly.
const controllerRecVersion byte = 1

// snapshotVersion is the first byte of every snapshot payload. Versions 1
// and 2 (no controller state, no billing state) are retired and refused.
const snapshotVersion byte = 3

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

// snapshotNow quiesces every mutator — the registration mutex, then all
// shard locks in ascending order (the global lock order) — encodes the
// full broker state and rotates the log onto it. Mutations are appended
// only while holding one of those locks, so the encoded payload reflects
// exactly the records appended so far: nothing in flight, nothing lost.
func (b *Broker) snapshotNow() error {
	d := b.wal
	b.regMu.Lock()
	for i := range b.shards {
		b.shards[i].mu.Lock()
	}
	payload := b.encodeSnapshot()
	err := d.log.Snapshot(payload)
	d.appended.Store(0)
	for i := len(b.shards) - 1; i >= 0; i-- {
		b.shards[i].mu.Unlock()
	}
	b.regMu.Unlock()
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

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// logRegister records a registration. Called under regMu before the
// directory entry is published, so any later mutation of this campaign —
// which can only start after publication — appends after it.
func (b *Broker) logRegister(id int32, spec CampaignSpec) {
	bp := recPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, recRegister)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	buf = appendF64(buf, spec.Loc.X)
	buf = appendF64(buf, spec.Loc.Y)
	buf = appendF64(buf, spec.Radius)
	buf = appendF64(buf, spec.Budget)
	var class byte
	if spec.Guaranteed {
		class = 1
	}
	buf = append(buf, class)
	buf = appendF64(buf, spec.Floor)
	buf = appendF64(buf, spec.Penalty)
	buf = append(buf, byte(spec.Billing.Model))
	buf = appendF64(buf, spec.Billing.ReserveECPM)
	buf = appendF64(buf, spec.Billing.EventRate)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(spec.Tags)))
	for _, t := range spec.Tags {
		buf = appendF64(buf, t)
	}
	*bp = buf
	b.walAppend(bp)
}

// logController records one applied controller epoch: the epoch counter, the
// boost bits, and every campaign's applied rate/allowance bits — read back
// from the atomics so the record carries exactly what memory holds. Called
// with every mutator quiesced (applyDecision holds regMu plus all shard
// locks), so replay storing these bits reproduces the post-epoch state
// bit-exactly without re-running the control law.
func (b *Broker) logController(epoch int64, applied []*campaign) {
	bp := recPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, recController, controllerRecVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(epoch))
	buf = binary.LittleEndian.AppendUint64(buf, b.phiBoost.bits.Load())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(applied)))
	for _, c := range applied {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.id))
		buf = binary.LittleEndian.AppendUint64(buf, c.rate.bits.Load())
		buf = binary.LittleEndian.AppendUint64(buf, c.allowance.bits.Load())
	}
	*bp = buf
	b.walAppend(bp)
}

// logTopUp records a budget top-up; called under the campaign's shard lock.
func (b *Broker) logTopUp(id int32, amount float64) {
	bp := recPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, recTopUp)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	buf = appendF64(buf, amount)
	*bp = buf
	b.walAppend(bp)
}

// logPause records a pause/resume; called under the campaign's shard lock.
func (b *Broker) logPause(id int32, paused bool) {
	bp := recPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, recPause)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	var flag byte
	if paused {
		flag = 1
	}
	buf = append(buf, flag)
	*bp = buf
	b.walAppend(bp)
}

// appendArrivalsHeader starts a recArrivals record framing n bodies.
func appendArrivalsHeader(buf []byte, n int, auction bool) []byte {
	buf = append(buf, recArrivals)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	var flags byte
	if auction {
		flags = arrivalsAuction
	}
	return append(buf, flags)
}

// logConversion records one collected conversion; called with the
// campaign's shard lock held (Convert's phase 2).
func (b *Broker) logConversion(offerID uint64, o openOffer, key string) {
	bp := recPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, recConversion)
	buf = binary.LittleEndian.AppendUint64(buf, offerID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(o.campaign))
	buf = append(buf, byte(o.model))
	buf = appendF64(buf, o.hold)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	*bp = buf
	b.walAppend(bp)
}

// appendArrivalBody encodes one arrival inside a recArrivals record: the γ
// bounds as this broker holds them right now (the pipeline encodes immediately
// after the arrival's commit, so the bits are the same however the stream was
// split into windows), the arriving customer's own features — what offline
// audit replays into an oracle problem — and every offer charged. Replay
// folds the bounds with Min/Max, which is exact for a serial history and
// safe under concurrency because the bounds are monotone — every observation
// is ≤/≥ the bits some record carries. A fixed-cost offer is the zero-billing
// instance of the one offer layout (id, charge eCPM and hold all zero).
func (b *Broker) appendArrivalBody(buf []byte, a *Arrival, offers []Offer) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, b.gammaMin.bits.Load())
	buf = binary.LittleEndian.AppendUint64(buf, b.gammaMax.bits.Load())
	buf = appendF64(buf, a.Loc.X)
	buf = appendF64(buf, a.Loc.Y)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.Capacity))
	buf = appendF64(buf, a.ViewProb)
	buf = appendF64(buf, a.Hour)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.Interests)))
	for _, v := range a.Interests {
		buf = appendF64(buf, v)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(offers)))
	for i := range offers {
		o := &offers[i]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o.Campaign))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o.AdType))
		buf = appendF64(buf, o.Cost)
		buf = appendF64(buf, o.Utility)
		buf = binary.LittleEndian.AppendUint64(buf, o.ID)
		buf = appendF64(buf, o.ChargeECPM)
		buf = appendF64(buf, o.Hold)
		buf = append(buf, byte(o.Model))
	}
	return buf
}

// recReader is a bounds-checked little-endian cursor over one record (or
// snapshot) payload. A short read sets err once; subsequent reads return
// zeros, and done() reports the failure — decoding never panics, whatever
// the input.
type recReader struct {
	data []byte
	off  int
	err  error
}

func (r *recReader) short() {
	if r.err == nil {
		r.err = errors.New("truncated payload")
	}
}

func (r *recReader) u8() byte {
	if r.off+1 > len(r.data) {
		r.short()
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *recReader) u32() uint32 {
	if r.off+4 > len(r.data) {
		r.short()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *recReader) u64() uint64 {
	if r.off+8 > len(r.data) {
		r.short()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *recReader) i32() int32   { return int32(r.u32()) }
func (r *recReader) i64() int64   { return int64(r.u64()) }
func (r *recReader) f64() float64 { return math.Float64frombits(r.u64()) }

// remaining bounds variable-length sections before allocating for them.
func (r *recReader) remaining() int { return len(r.data) - r.off }

func (r *recReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%d trailing bytes", len(r.data)-r.off)
	}
	return nil
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

// encodeSnapshot serializes the full broker state. Called with every
// mutator quiesced (regMu plus all shard locks held), so the atomics are
// stable and the encoding is a consistent cut.
func (b *Broker) encodeSnapshot() []byte {
	dir := b.dir.Load().campaigns
	buf := make([]byte, 0, 256+len(dir)*200)
	buf = append(buf, snapshotVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(b.arrivals.Load()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(b.offers.Load()))
	buf = binary.LittleEndian.AppendUint64(buf, b.utility.bits.Load())
	buf = binary.LittleEndian.AppendUint64(buf, b.spent.bits.Load())
	buf = binary.LittleEndian.AppendUint64(buf, b.gammaMin.bits.Load())
	buf = binary.LittleEndian.AppendUint64(buf, b.gammaMax.bits.Load())
	buf = binary.LittleEndian.AppendUint64(buf, b.phiBoost.bits.Load())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(b.pacingEpoch.Load()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dir)))
	for _, c := range dir {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.id))
		buf = appendF64(buf, c.loc.X)
		buf = appendF64(buf, c.loc.Y)
		buf = appendF64(buf, c.radius)
		buf = binary.LittleEndian.AppendUint64(buf, c.budget.bits.Load())
		buf = binary.LittleEndian.AppendUint64(buf, c.spent.bits.Load())
		var paused byte
		if c.paused.Load() {
			paused = 1
		}
		buf = append(buf, paused)
		var class byte
		if c.guaranteed {
			class = 1
		}
		buf = append(buf, class)
		buf = appendF64(buf, c.floor)
		buf = appendF64(buf, c.penalty)
		buf = binary.LittleEndian.AppendUint64(buf, c.rate.bits.Load())
		buf = binary.LittleEndian.AppendUint64(buf, c.allowance.bits.Load())
		buf = append(buf, byte(c.billing.Model))
		buf = appendF64(buf, c.billing.ReserveECPM)
		buf = appendF64(buf, c.billing.EventRate)
		buf = binary.LittleEndian.AppendUint64(buf, c.escrow.bits.Load())
		buf = binary.LittleEndian.AppendUint64(buf, c.converted.bits.Load())
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.conversions.Load()))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.tags)))
		for _, t := range c.tags {
			buf = appendF64(buf, t)
		}
	}
	return b.encodeBillingSnapshot(buf)
}

// encodeBillingSnapshot appends the global billing section of the
// snapshot. Called under full quiescence (regMu plus every shard lock);
// since all billing mutations hold at least one shard lock, the sidecar's
// state is stable and read without its mutex.
func (b *Broker) encodeBillingSnapshot(buf []byte) []byte {
	bl := b.billing
	buf = binary.LittleEndian.AppendUint64(buf, bl.nextID)
	buf = binary.LittleEndian.AppendUint64(buf, bl.evictNext)
	buf = binary.LittleEndian.AppendUint64(buf, bl.held.bits.Load())
	buf = binary.LittleEndian.AppendUint64(buf, bl.released.bits.Load())
	buf = binary.LittleEndian.AppendUint64(buf, bl.convertedRev.bits.Load())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(bl.conversions.Load()))
	for m := range bl.revenue {
		buf = binary.LittleEndian.AppendUint64(buf, bl.revenue[m].bits.Load())
	}
	// The open table, in ID order for a deterministic payload.
	ids := make([]uint64, 0, len(bl.open))
	for id := range bl.open {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		o := bl.open[id]
		buf = binary.LittleEndian.AppendUint64(buf, id)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o.campaign))
		buf = append(buf, byte(o.model))
		buf = appendF64(buf, o.hold)
	}
	// The live idempotency window, oldest first, so replaying
	// registerKeyLocked rebuilds the same FIFO.
	live := bl.idemQ[bl.idemHead:]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(live)))
	for _, k := range live {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
	}
	return buf
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
