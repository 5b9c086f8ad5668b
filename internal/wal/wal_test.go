package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"muaa/internal/obs"
)

func openT(t *testing.T, dir string, opts Options) (*Log, View) {
	t.Helper()
	l, rec, err := Open(dir, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

func TestAppendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir, Options{})
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.Truncated {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d-%s", i, strings.Repeat("x", i)))
		want = append(want, p)
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, Options{})
	defer l2.Close()
	if rec.Truncated {
		t.Fatal("clean close reported a truncated tail")
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(want))
	}
	for i, r := range rec.Records {
		if !bytes.Equal(r, want[i]) {
			t.Fatalf("record %d = %q, want %q", i, r, want[i])
		}
	}
}

// TestAppendAfterReopen asserts the write offset lands after the recovered
// records, so a reopened log extends rather than overwrites.
func TestAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	if _, err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _ = openT(t, dir, Options{})
	if _, err := l.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, dir, Options{})
	if len(rec.Records) != 2 || string(rec.Records[0]) != "first" || string(rec.Records[1]) != "second" {
		t.Fatalf("recovered %q", rec.Records)
	}
}

// TestTornTailTruncated corrupts the log at every byte offset inside the
// last record and asserts recovery stops cleanly at the previous record
// boundary, truncating the file so subsequent appends are intact.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Sync: SyncNone})
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := segmentPath(dir, 1)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := len(full) - (frameSize + len("rec-4"))
	for cut := lastStart + 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec := openT(t, dir, Options{})
		if !rec.Truncated {
			t.Fatalf("cut at %d: truncation not reported", cut)
		}
		if len(rec.Records) != 4 {
			t.Fatalf("cut at %d: recovered %d records, want 4", cut, len(rec.Records))
		}
		// The log must be appendable after tail repair.
		if _, err := l.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, rec2 := openT(t, dir, Options{})
		if len(rec2.Records) != 5 || string(rec2.Records[4]) != "after" {
			t.Fatalf("cut at %d: post-repair records %q", cut, rec2.Records)
		}
		// Restore for the next cut point.
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptMiddleStops flips a payload byte mid-log: the records after
// it were acknowledged, so Open refuses the segment, naming it and the bad
// frame's offset, and leaves the file as it found it.
func TestCorruptMiddleStops(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Sync: SyncNone})
	for i := 0; i < 4; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := segmentPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := headerSize + frameSize + len("payload-0")
	data[bad+frameSize] ^= 0xFF // first payload byte of record 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), fmt.Sprintf("byte %d", bad)) {
		t.Fatalf("Open = %v, want an error naming %s and byte %d", err, path, bad)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("a refused Open modified the segment (%v)", err)
	}
}

// segmentImage is segment seq's file: the header, then payloads framed, and
// the offset of each frame.
func segmentImage(seq uint64, payloads ...string) ([]byte, []int) {
	img := binary.LittleEndian.AppendUint64(append([]byte(nil), logMagic[:]...), seq)
	var at []int
	for _, p := range payloads {
		at = append(at, len(img))
		img = AppendFrame(img, []byte(p))
	}
	return img, at
}

// TestCorruptionRule runs each case of the one corruption rule through Open
// and ReadDir. Four records sit in the active segment 1 or, in the sealed
// cases, in segment 1 retained behind a snapshot that hands over to an
// intact segment 2. A torn tail yields the intact prefix from both, which
// Open cuts the file back to and ReadDir leaves byte-identical; corruption
// is an error from every reader of that segment, naming it and the bad
// frame's offset, and nothing is modified.
func TestCorruptionRule(t *testing.T) {
	payloads := []string{"alpha", "bravo-bravo", "charlie", "delta-delta-delta"}
	img, at := segmentImage(1, payloads...)
	last := at[3]
	cut := func(n int) func([]byte) []byte { return func(b []byte) []byte { return b[:n] } }
	flip := func(i int) func([]byte) []byte { return func(b []byte) []byte { b[i] ^= 0xFF; return b } }
	zeroFill := func(b []byte) []byte { // the last payload never written, the file extended anyway
		clear(b[last+frameSize:])
		return append(b, make([]byte, 2*frameSize)...)
	}
	for _, c := range []struct {
		name   string
		sealed bool
		damage func([]byte) []byte
		bad    int  // offset of the first bad frame
		torn   bool // a torn tail, not corruption
	}{
		{"cut in frame header", false, cut(last + 3), last, true},
		{"cut in payload", false, cut(last + frameSize + 2), last, true},
		{"checksum flipped on last frame", false, flip(last + 4), last, true},
		{"zero fill after last frame header", false, zeroFill, last, true},
		{"payload byte flipped in middle frame", false, flip(at[1] + frameSize), at[1], false},
		{"checksum flipped in middle frame", false, flip(at[2] + 4), at[2], false},
		{"sealed: cut in payload", true, cut(last + frameSize + 2), last, false},
		{"sealed: checksum flipped on last frame", true, flip(last + 4), last, false},
		{"sealed: payload byte flipped in middle frame", true, flip(at[1] + frameSize), at[1], false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := segmentPath(dir, 1)
			damaged := c.damage(bytes.Clone(img))
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			if c.sealed {
				seg2, _ := segmentImage(2, "echo")
				if err := os.WriteFile(segmentPath(dir, 2), seg2, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := writeSnapshotFile(dir, 2, []byte("snap")); err != nil {
					t.Fatal(err)
				}
			}
			unchanged := func(reader string) {
				t.Helper()
				if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, damaged) {
					t.Fatalf("%s modified segment 1 (%v)", reader, err)
				}
			}
			names := func(reader string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), fmt.Sprintf("byte %d", c.bad)) {
					t.Fatalf("%s = %v, want an error naming %s and byte %d", reader, err, path, c.bad)
				}
			}
			v, err := ReadDir(dir)
			unchanged("ReadDir")
			switch {
			case c.torn:
				if err != nil || !v.Truncated || !reflect.DeepEqual(v.Records, [][]byte{[]byte("alpha"), []byte("bravo-bravo"), []byte("charlie")}) {
					t.Fatalf("ReadDir: %v, truncated %v, records %q; want the three intact records", err, v.Truncated, v.Records)
				}
			default:
				names("ReadDir", err)
			}
			l, v, err := Open(dir, Options{Retain: true}, nil, nil)
			switch {
			case c.torn:
				if err != nil || !v.Truncated || len(v.Records) != 3 {
					t.Fatalf("Open: %v, truncated %v, %d records; want the three intact records", err, v.Truncated, len(v.Records))
				}
				if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, img[:last]) {
					t.Fatalf("Open did not cut the segment back to byte %d (%v)", last, err)
				}
			case c.sealed: // Open continues segment 2 and reads no sealed segment
				if err != nil || len(v.Records) != 1 || string(v.Records[0]) != "echo" {
					t.Fatalf("Open: %v, records %q; want segment 2's one record", err, v.Records)
				}
				unchanged("Open")
			default:
				names("Open", err)
				unchanged("Open")
			}
			if l != nil {
				l.Close()
			}
		})
	}
}

// TestAppendNumbersRecords: Append numbers each record within the active
// segment, counting on across a reopen and a failed rotation and from 1
// again after a successful one.
func TestAppendNumbersRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Sync: SyncNone})
	next := func(want int) {
		t.Helper()
		if n, err := l.Append([]byte("r")); err != nil || n != want {
			t.Fatalf("Append = %d, %v; want record %d", n, err, want)
		}
	}
	next(1)
	next(2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _ = openT(t, dir, Options{Sync: SyncNone})
	next(3)
	obstacle := filepath.Join(dir, "snapshot.tmp")
	if err := os.Mkdir(obstacle, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("s")); err == nil {
		t.Fatal("a rotation onto a squatted snapshot.tmp succeeded")
	}
	next(4)
	if err := os.Remove(obstacle); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	next(1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte("pre-snapshot")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot([]byte("state-at-10")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segmentPath(dir, 2)); err != nil {
		t.Fatalf("snapshot did not rotate onto segment 2: %v", err)
	}
	if _, err := l.Append([]byte("post-snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Only the new segment and the snapshot remain.
	if _, err := os.Stat(segmentPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("old segment not deleted: %v", err)
	}
	l2, rec := openT(t, dir, Options{})
	defer l2.Close()
	if string(rec.Snapshot) != "state-at-10" {
		t.Fatalf("snapshot = %q", rec.Snapshot)
	}
	if len(rec.Records) != 1 || string(rec.Records[0]) != "post-snapshot" {
		t.Fatalf("post-snapshot records = %q", rec.Records)
	}
}

// TestStaleSegmentsRemoved simulates the two crash windows of a rotation:
// a future segment with no snapshot pointing at it, and a superseded
// segment the rotation didn't get to delete.
func TestStaleSegmentsRemoved(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	if _, err := l.Append([]byte("live")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash window 1: next segment created, snapshot never installed.
	if err := os.WriteFile(segmentPath(dir, 2), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := openT(t, dir, Options{})
	if len(rec.Records) != 1 || string(rec.Records[0]) != "live" {
		t.Fatalf("records = %q", rec.Records)
	}
	if _, err := os.Stat(segmentPath(dir, 2)); !os.IsNotExist(err) {
		t.Fatal("stale future segment survived Open")
	}
	// Crash window 2: snapshot installed, old segment not deleted.
	if err := l.Snapshot([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath(dir, 1), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec = openT(t, dir, Options{})
	defer l.Close()
	if string(rec.Snapshot) != "snap" || len(rec.Records) != 0 {
		t.Fatalf("after rotation crash: snapshot=%q records=%q", rec.Snapshot, rec.Records)
	}
	if _, err := os.Stat(segmentPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatal("superseded segment survived Open")
	}
}

func TestSyncEveryRecordWritesThrough(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Sync: SyncEveryRecord})
	if _, err := l.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	// No Close, no Flush: the record must already be in the file.
	data, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := ScanRecords(data[headerSize:])
	if len(recs) != 1 || string(recs[0]) != "durable" {
		t.Fatalf("SyncEveryRecord left the record buffered: %q", recs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitWritesThrough: no Append returns with a full group still
// buffered — the append that fills one writes it before it returns, with no
// Flush. The background flusher may tick at any point in the loop and write
// part of the stream early, so the check is timer-independent: after every
// append fewer than groupCommit records are pending, and at the end the file
// and the buffer together hold every record, read with no flush in flight.
func TestGroupCommitWritesThrough(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Sync: SyncNone})
	defer l.Close()
	pending := func() int {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.pending
	}
	for i := 0; i < groupCommit; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
		if p := pending(); p >= groupCommit {
			t.Fatalf("append %d returned with %d records buffered", i, p)
		}
	}
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	data, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := ScanRecords(data[headerSize:])
	if p := pending(); len(recs)+p != groupCommit {
		t.Fatalf("file holds %d records and %d are buffered, want %d in all", len(recs), p, groupCommit)
	}
}

// TestBackgroundFlusher: a record short of a group commit reaches the file
// within the flush bound, without Flush or Close.
func TestBackgroundFlusher(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Sync: SyncNone})
	defer l.Close()
	if _, err := l.Append([]byte("buffered")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(segmentPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		if recs, _ := ScanRecords(data[headerSize:]); len(recs) == 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("background flusher never flushed the buffered record")
}

func TestClosedLogRejectsOps(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	if err := l.Err(); err != nil {
		t.Fatalf("Err on an open log = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Err(); err != ErrClosed {
		t.Fatalf("Err after Close = %v, want ErrClosed", err)
	}
	if _, err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
	if err := l.Snapshot(nil); err != ErrClosed {
		t.Fatalf("Snapshot after Close = %v, want ErrClosed", err)
	}
}

// TestSnapshotDirSyncFailureRetires fails the directory fsync once the log
// is open, so Snapshot's rename lands but is not made durable. The log must
// retire with both segments kept — a power loss may bring back either
// snapshot — and a reopen must find the new snapshot.
func TestSnapshotDirSyncFailureRetires(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Sync: SyncEveryRecord})
	if _, err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	fault := errors.New("injected directory fsync fault")
	sync := syncDir
	syncDir = func(string) error { return fault }
	t.Cleanup(func() { syncDir = sync })
	err := l.Snapshot([]byte("snap"))
	if !errors.Is(err, fault) || l.Err() != err {
		t.Fatalf("Snapshot = %v, Err = %v; want the injected fault, sticky", err, l.Err())
	}
	if _, err := l.Append([]byte("b")); err != l.Err() {
		t.Fatalf("Append on the retired log = %v", err)
	}
	syncDir = sync
	for _, seq := range []uint64{1, 2} {
		if _, err := os.Stat(segmentPath(dir, seq)); err != nil {
			t.Fatalf("segment %d: %v", seq, err)
		}
	}
	l.Close()
	l, rec := openT(t, dir, Options{})
	defer l.Close()
	if string(rec.Snapshot) != "snap" || len(rec.Records) != 0 {
		t.Fatalf("recovered snapshot %q and %d records, want the renamed snapshot and none", rec.Snapshot, len(rec.Records))
	}
}

func TestCorruptSnapshotIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	if err := l.Snapshot([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snapshot")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}, nil, nil); err == nil {
		t.Fatal("corrupt snapshot must fail Open loudly, not be silently dropped")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"": SyncOnFlush, "flush": SyncOnFlush, "always": SyncEveryRecord, "none": SyncNone,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	l, _, err := Open(dir, Options{}, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil { // write + fsync
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	reg.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"muaa_wal_appends_total 2",
		"muaa_wal_fsyncs_total",
		"# TYPE muaa_wal_flush_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics scrape missing %q", want)
		}
	}
}
