// Package wal is the broker's durability substrate: an append-only,
// length-prefixed, CRC-checksummed binary record log with group-commit
// buffering and a configurable fsync policy, plus atomically-replaced
// snapshots that compact the log. The package is deliberately generic —
// record payloads are opaque bytes and the snapshot payload is an opaque
// byte blob — so the broker (internal/broker) owns all encoding and the
// log owns only framing, integrity and file lifecycle.
//
// # On-disk layout
//
// A durability directory holds at most one snapshot file and one active
// log segment:
//
//	snapshot            latest compacted state (atomic rename of snapshot.tmp)
//	wal-<seq>.log       records appended since that snapshot
//
// Each log segment starts with a 16-byte header (magic "MUAAWAL\x01" plus
// the segment sequence number) followed by records framed as
//
//	uint32 payload length | uint32 CRC-32 (IEEE) of payload | payload
//
// all little-endian. The snapshot file is magic "MUAASNP\x01", the
// sequence number of the log segment that continues it, and one framed
// payload. A torn or corrupt record tail is expected after a crash: Open
// truncates the segment back to the last intact record and reports it.
//
// # Compaction
//
// Snapshot rotates segments crash-safely: the next segment is created
// and synced first, then the snapshot (naming that segment) is written
// and renamed into place, and only then is the old segment deleted. A
// crash between any two steps leaves either the old snapshot+segment or
// the new pair fully intact; stale segments from interrupted rotations
// are removed on the next Open.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"muaa/internal/obs"
)

// Framing constants. MaxRecord bounds a single payload: anything larger in
// a length prefix is treated as corruption rather than an allocation
// request, which is what keeps decoding total on hostile input.
const (
	headerSize = 16
	frameSize  = 8 // uint32 length + uint32 crc
	// MaxRecord is the largest accepted record payload (16 MiB).
	MaxRecord = 1 << 24
)

var (
	logMagic  = [8]byte{'M', 'U', 'A', 'A', 'W', 'A', 'L', 1}
	snapMagic = [8]byte{'M', 'U', 'A', 'A', 'S', 'N', 'P', 1}
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncOnFlush fsyncs at every group-commit flush (size- or
	// timer-triggered). The default: bounded loss window, amortized cost.
	SyncOnFlush SyncPolicy = iota
	// SyncEveryRecord flushes and fsyncs on every append. Maximum
	// durability, pays one fsync per mutation.
	SyncEveryRecord
	// SyncNone writes records to the OS on flush but never fsyncs; the
	// page cache decides persistence. Survives process crashes, not power
	// loss.
	SyncNone
)

// ParseSyncPolicy maps the operator-facing flag values ("flush", "always",
// "none") onto a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "flush":
		return SyncOnFlush, nil
	case "always":
		return SyncEveryRecord, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want flush, always or none)", s)
}

// Options tunes a Log. The zero value selects the documented defaults.
type Options struct {
	// FlushEvery is the group-commit size: appends are buffered in memory
	// and written to the OS once this many records are pending. Zero
	// selects 64; 1 writes through on every append.
	FlushEvery int
	// FlushInterval bounds how long a buffered record may wait before the
	// background flusher pushes it to the OS (and fsyncs under
	// SyncOnFlush). Zero selects 50ms; negative disables the background
	// flusher (flushes happen only on size, Flush and Close).
	FlushInterval time.Duration
	// Sync is the fsync policy.
	Sync SyncPolicy
	// SnapshotEvery is read by the log's owner (the broker), not the log
	// itself: the number of appended records between automatic snapshot
	// compactions. Zero selects 262144; negative disables automatic
	// snapshots (Close still writes one).
	SnapshotEvery int
	// Retain keeps superseded segments on disk after a snapshot rotation
	// instead of deleting them, and flushes any still-buffered records into
	// the old segment first, so the directory holds the complete record
	// history from segment 1 onward. Offline auditing (ReadDir) replays
	// that history against the oracle; serving recovery still reads only
	// snapshot + active segment. Retained segments grow the directory
	// unboundedly — the operator prunes or disables as policy dictates.
	Retain bool
	// Metrics, when non-nil, registers the wal instrument families
	// (appends, bytes, fsyncs, flush latency, snapshots) on the registry.
	Metrics *obs.Registry
	// Logger, when non-nil, receives the log's structured events: torn-tail
	// truncation at open (warn), the first sticky I/O error (error), and
	// snapshot rotations (debug). Nil discards them.
	Logger *slog.Logger
}

func (o Options) flushEvery() int {
	if o.FlushEvery <= 0 {
		return 64
	}
	return o.FlushEvery
}

func (o Options) flushInterval() time.Duration {
	if o.FlushInterval == 0 {
		return 50 * time.Millisecond
	}
	return o.FlushInterval
}

// SnapshotCadence resolves SnapshotEvery to the effective record count, or
// 0 when automatic snapshots are disabled.
func (o Options) SnapshotCadence() int {
	if o.SnapshotEvery < 0 {
		return 0
	}
	if o.SnapshotEvery == 0 {
		return 262144
	}
	return o.SnapshotEvery
}

// Recovery is what Open found in the directory.
type Recovery struct {
	// Snapshot is the latest intact snapshot payload, nil if none exists.
	Snapshot []byte
	// Records are the payloads appended after that snapshot, in order.
	Records [][]byte
	// Truncated reports that the log had a torn or corrupt tail which was
	// discarded (the file was truncated back to the last intact record).
	Truncated bool
}

// walMetrics is the registered instrument set; nil when Options.Metrics is
// nil, checked once per operation like the broker's own instruments.
type walMetrics struct {
	appends  *obs.Counter
	fsyncs   *obs.Counter
	flushSec *obs.Histogram
}

func newWALMetrics(reg *obs.Registry) *walMetrics {
	return &walMetrics{
		appends: reg.NewCounter("muaa_wal_appends_total",
			"Records appended to the write-ahead log."),
		fsyncs: reg.NewCounter("muaa_wal_fsyncs_total",
			"fsync calls issued by the write-ahead log."),
		flushSec: reg.NewHistogram("muaa_wal_flush_seconds",
			"Latency of one group-commit flush (write plus fsync per policy).",
			obs.ExpBuckets(1e-6, 4, 12)),
	}
}

// Log is an open write-ahead log. Append/Flush/Snapshot/Close are safe for
// concurrent use. The locking is two-level: mu guards only the in-memory
// append buffer (the hot path pays one short lock plus a copy), while
// flushMu serializes the slow file work — write, fsync, rotation — so an
// in-flight fsync never blocks concurrent Appends that merely buffer.
type Log struct {
	dir     string
	opts    Options
	metrics *walMetrics
	logger  *slog.Logger // never nil; a discard logger when Options.Logger was

	flushMu sync.Mutex // held (outside mu) across write/fsync/rotate

	mu      sync.Mutex
	f       *os.File
	seq     uint64
	buf     []byte // framed records awaiting a flush
	spare   []byte // recycled buffer swapped in when buf is stolen
	pending int    // records in buf
	dirty   bool   // bytes written to f since the last fsync
	closed  bool
	err     error // sticky I/O error; appends after it are dropped

	stop chan struct{} // closes the background flusher
	done chan struct{}
}

// Open opens (creating if necessary) the durability directory, recovers
// the latest snapshot and the intact records appended after it, and
// returns a log ready for appends. A torn tail is truncated away and
// reported via Recovery.Truncated, never as an error.
func Open(dir string, opts Options) (*Log, Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	var rec Recovery
	activeSeq := uint64(1)
	snap, snapSeq, err := readSnapshotFile(filepath.Join(dir, "snapshot"))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh directory, or one that never compacted.
	case err != nil:
		return nil, Recovery{}, err
	default:
		rec.Snapshot = snap
		activeSeq = snapSeq
	}

	// Remove segments stranded by interrupted rotations: anything below the
	// snapshot's segment is superseded, anything above it never received a
	// record (rotation writes the snapshot before switching appends). With
	// Retain the superseded segments below are the audit history and stay;
	// only the never-used ones above are stale.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	for _, e := range entries {
		if seq, ok := segmentSeq(e.Name()); ok && seq != activeSeq {
			if opts.Retain && seq < activeSeq {
				continue
			}
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}

	path := segmentPath(dir, activeSeq)
	f, records, truncated, err := openSegment(path, activeSeq)
	if err != nil {
		return nil, Recovery{}, err
	}
	rec.Records = records
	rec.Truncated = truncated

	l := &Log{
		dir:    dir,
		opts:   opts,
		logger: opts.Logger,
		f:      f,
		seq:    activeSeq,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if l.logger == nil {
		l.logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	if truncated {
		l.logger.Warn("wal_torn_tail_truncated",
			slog.String("dir", dir),
			slog.Uint64("segment", activeSeq),
			slog.Int("records_recovered", len(records)))
	}
	if opts.Metrics != nil {
		l.metrics = newWALMetrics(opts.Metrics)
	}
	if opts.flushInterval() > 0 {
		go l.flusher(opts.flushInterval())
	} else {
		close(l.done)
	}
	return l, rec, nil
}

func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", seq))
}

// segmentSeq parses a segment file name, reporting whether it is one.
func segmentSeq(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "wal-%016x.log", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// openSegment opens or creates one log segment, validates its header,
// scans its records, and truncates away any torn tail so the write offset
// lands on the last intact record boundary.
func openSegment(path string, seq uint64) (*os.File, [][]byte, bool, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, false, fmt.Errorf("wal: opening segment: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, false, fmt.Errorf("wal: reading segment: %w", err)
	}
	// An empty file is a new segment. A header shorter than headerSize or
	// with the wrong magic means the file is not (yet) a log: a crash can
	// leave a zero-padded or partial header. Either is an empty segment,
	// given its header; only the second counts as a truncation.
	if !validHeader(data, seq) {
		if err := writeHeader(f, seq); err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("wal: writing segment header: %w", err)
		}
		return f, nil, len(data) > 0, nil
	}
	records, good := ScanRecords(data[headerSize:])
	truncated := headerSize+good != len(data)
	if truncated {
		if err := f.Truncate(int64(headerSize + good)); err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(headerSize+good), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, false, err
	}
	return f, records, truncated, nil
}

// writeHeader makes f an empty segment seq: the 16-byte header (magic, then
// the sequence), synced, with the write offset just past it.
func writeHeader(f *os.File, seq uint64) error {
	var hdr [headerSize]byte
	copy(hdr[:8], logMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := f.Write(hdr[:]); err != nil {
		return err
	}
	return f.Sync()
}

// validHeader reports whether data starts with segment seq's header.
func validHeader(data []byte, seq uint64) bool {
	return len(data) >= headerSize && [8]byte(data[:8]) == logMagic &&
		binary.LittleEndian.Uint64(data[8:16]) == seq
}

// ScanRecords decodes framed records from data, stopping cleanly at the
// first torn or corrupt frame. It returns the intact payloads and the byte
// offset of the first byte it could not accept; offset == len(data) means
// the input was fully intact. It never panics on any input.
func ScanRecords(data []byte) (records [][]byte, offset int) {
	for {
		rest := data[offset:]
		if len(rest) < frameSize {
			return records, offset
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > MaxRecord || len(rest)-frameSize < int(n) {
			return records, offset
		}
		payload := rest[frameSize : frameSize+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return records, offset
		}
		records = append(records, append([]byte(nil), payload...))
		offset += frameSize + int(n)
	}
}

// AppendFrame frames one payload onto dst exactly as the log writes it —
// exposed so tests and fuzzers can build valid log images byte for byte.
func AppendFrame(dst, payload []byte) []byte {
	var frame [frameSize]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, frame[:]...)
	return append(dst, payload...)
}

// Append frames payload and buffers it for group commit, flushing per the
// configured policy. The payload is copied; the caller may reuse it.
func (l *Log) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.buf = AppendFrame(l.buf, payload)
	l.pending++
	full := l.opts.Sync == SyncEveryRecord || l.pending >= l.opts.flushEvery()
	l.mu.Unlock()
	if m := l.metrics; m != nil {
		m.appends.Inc()
	}
	if full {
		return l.flush(l.opts.Sync != SyncNone)
	}
	return nil
}

// Flush pushes all buffered records to the OS and fsyncs unless the policy
// is SyncNone.
func (l *Log) Flush() error {
	return l.flush(l.opts.Sync != SyncNone)
}

// flush is the group-commit step: it steals the append buffer under mu,
// then writes (and fsyncs, per policy) holding only flushMu — so a slow
// fsync never blocks concurrent Appends that merely buffer. flushMu keeps
// stolen buffers reaching the file in append order. An I/O error is
// sticky: the log refuses further appends so a half-written tail is never
// extended.
func (l *Log) flush(sync bool) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	buf := l.buf
	l.buf = l.spare[:0]
	l.spare = nil
	l.pending = 0
	f := l.f
	if len(buf) > 0 {
		l.dirty = true
	}
	doSync := sync && l.dirty
	if doSync {
		// Optimistic clear: if the fsync fails the sticky error retires the
		// log anyway, so a stale false is unreachable.
		l.dirty = false
	}
	l.mu.Unlock()

	start := time.Now()
	var err error
	if len(buf) > 0 {
		if _, werr := f.Write(buf); werr != nil {
			err = fmt.Errorf("wal: append write: %w", werr)
		}
	}
	if err == nil && doSync {
		if serr := f.Sync(); serr != nil {
			err = fmt.Errorf("wal: fsync: %w", serr)
		} else if m := l.metrics; m != nil {
			m.fsyncs.Inc()
		}
	}
	if m := l.metrics; m != nil && (len(buf) > 0 || doSync) {
		m.flushSec.Observe(time.Since(start).Seconds())
	}

	l.mu.Lock()
	l.spare = buf[:0]
	first := err != nil && l.err == nil
	if first {
		l.err = err
	}
	l.mu.Unlock()
	if first {
		// Logged exactly once: the sticky error retires the log, so every
		// later flush fails fast without re-reporting.
		l.logger.Error("wal_flush_failed",
			slog.String("dir", l.dir),
			slog.String("error", err.Error()))
	}
	return err
}

// flusher is the group-commit timer: it bounds the time a buffered record
// can wait before reaching the OS (and stable storage under SyncOnFlush).
func (l *Log) flusher(every time.Duration) {
	defer close(l.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			idle := l.closed || l.pending == 0
			l.mu.Unlock()
			if !idle {
				_ = l.flush(l.opts.Sync != SyncNone)
			}
		}
	}
}

// Snapshot replaces the log's contents with a compacted state payload: it
// rotates to a fresh segment, atomically installs the snapshot naming that
// segment, and deletes the old one. Buffered records are discarded — by
// contract the payload already reflects every appended mutation (the
// caller quiesces writers first). On error the old segment remains the
// durable truth.
//
// With Options.Retain the old segment is sealed instead of deleted:
// buffered records are written into it first (so the retained history is
// complete) and the file stays on disk for offline audit replay.
func (l *Log) Snapshot(payload []byte) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	seq := l.seq
	if l.opts.Retain && len(l.buf) > 0 {
		// Seal the retained history: whatever is still buffered belongs to
		// the old segment and must reach it before the rotation abandons
		// that file. Writers are quiesced (caller contract) and flushMu is
		// held, so stealing the buffer here cannot race a flush.
		buf, f := l.buf, l.f
		l.buf = l.spare[:0]
		l.spare = nil
		l.pending = 0
		l.mu.Unlock()
		_, werr := f.Write(buf)
		l.mu.Lock()
		l.spare = buf[:0]
		if werr != nil {
			err := fmt.Errorf("wal: sealing retained segment: %w", werr)
			if l.err == nil {
				l.err = err
			}
			l.mu.Unlock()
			return err
		}
	}
	l.mu.Unlock()

	newSeq := seq + 1
	newF, _, _, err := openSegment(segmentPath(l.dir, newSeq), newSeq)
	if err != nil {
		return err
	}
	if err := writeSnapshotFile(l.dir, newSeq, payload); err != nil {
		newF.Close()
		_ = os.Remove(segmentPath(l.dir, newSeq))
		return err
	}
	// The snapshot now names the new segment: it is the durable truth, and
	// the old segment (plus anything still buffered for it) is garbage.
	l.mu.Lock()
	old := l.f
	l.f, l.seq = newF, newSeq
	l.buf = l.buf[:0]
	l.pending = 0
	l.dirty = false
	l.mu.Unlock()
	old.Close()
	if !l.opts.Retain {
		_ = os.Remove(segmentPath(l.dir, seq))
	}
	if m := l.metrics; m != nil {
		m.fsyncs.Add(2) // snapshot file + directory
	}
	l.logger.Debug("wal_snapshot_rotated",
		slog.String("dir", l.dir),
		slog.Uint64("segment", newSeq),
		slog.Int("bytes", len(payload)))
	return nil
}

// writeSnapshotFile writes snapshot.tmp, fsyncs it, renames it over
// snapshot, and fsyncs the directory so the rename itself is durable.
func writeSnapshotFile(dir string, logSeq uint64, payload []byte) error {
	tmp := filepath.Join(dir, "snapshot.tmp")
	buf := make([]byte, 0, headerSize+frameSize+len(payload))
	buf = append(buf, snapMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, logSeq)
	buf = AppendFrame(buf, payload)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating snapshot.tmp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "snapshot")); err != nil {
		return fmt.Errorf("wal: installing snapshot: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// readSnapshotFile loads and validates a snapshot file, returning the
// payload and the sequence of the log segment that continues it.
func readSnapshotFile(path string) ([]byte, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < headerSize+frameSize || [8]byte(data[:8]) != snapMagic {
		return nil, 0, fmt.Errorf("wal: %s is not a snapshot file", path)
	}
	logSeq := binary.LittleEndian.Uint64(data[8:16])
	records, good := ScanRecords(data[headerSize:])
	if len(records) != 1 || headerSize+good != len(data) {
		return nil, 0, fmt.Errorf("wal: snapshot %s is corrupt", path)
	}
	return records[0], logSeq, nil
}

// Close flushes buffered records (fsyncing unless SyncNone), stops the
// background flusher and closes the segment. It does not snapshot — that
// is the owner's call, made before Close with writers quiesced. Close is
// idempotent.
func (l *Log) Close() error {
	flushErr := l.flush(l.opts.Sync != SyncNone)
	if errors.Is(flushErr, ErrClosed) {
		return nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return flushErr
	}
	l.closed = true
	close(l.stop)
	f := l.f
	l.mu.Unlock()
	<-l.done
	if err := f.Close(); err != nil && flushErr == nil {
		flushErr = fmt.Errorf("wal: closing segment: %w", err)
	}
	return flushErr
}

// Seq exposes the active segment sequence number (for tests and
// diagnostics).
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}
