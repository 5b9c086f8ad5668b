package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"muaa/internal/obs"
)

// noTimer disables the background flusher so tests control flush timing
// explicitly.
var noTimer = Options{FlushInterval: -1}

func openT(t *testing.T, dir string, opts Options) (*Log, Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

func TestAppendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir, noTimer)
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.Truncated {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d-%s", i, strings.Repeat("x", i)))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, noTimer)
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
	l, _ := openT(t, dir, noTimer)
	if err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _ = openT(t, dir, noTimer)
	if err := l.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, dir, noTimer)
	if len(rec.Records) != 2 || string(rec.Records[0]) != "first" || string(rec.Records[1]) != "second" {
		t.Fatalf("recovered %q", rec.Records)
	}
}

// TestTornTailTruncated corrupts the log at every byte offset inside the
// last record and asserts recovery stops cleanly at the previous record
// boundary, truncating the file so subsequent appends are intact.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{FlushInterval: -1, FlushEvery: 1, Sync: SyncNone})
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
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
		l, rec := openT(t, dir, noTimer)
		if !rec.Truncated {
			t.Fatalf("cut at %d: truncation not reported", cut)
		}
		if len(rec.Records) != 4 {
			t.Fatalf("cut at %d: recovered %d records, want 4", cut, len(rec.Records))
		}
		// The log must be appendable after tail repair.
		if err := l.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, rec2 := openT(t, dir, noTimer)
		if len(rec2.Records) != 5 || string(rec2.Records[4]) != "after" {
			t.Fatalf("cut at %d: post-repair records %q", cut, rec2.Records)
		}
		// Restore for the next cut point.
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptMiddleStops flips a payload byte mid-log: everything from the
// corrupt record on is dropped (a checksum mismatch cannot be skipped —
// record lengths are untrusted).
func TestCorruptMiddleStops(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{FlushInterval: -1, FlushEvery: 1, Sync: SyncNone})
	for i := 0; i < 4; i++ {
		if err := l.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
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
	recLen := frameSize + len("payload-0")
	data[headerSize+recLen+frameSize] ^= 0xFF // first payload byte of record 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, noTimer)
	defer l2.Close()
	if !rec.Truncated || len(rec.Records) != 1 || string(rec.Records[0]) != "payload-0" {
		t.Fatalf("corrupt middle: truncated=%v records=%q", rec.Truncated, rec.Records)
	}
}

func TestSnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, noTimer)
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte("pre-snapshot")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot([]byte("state-at-10")); err != nil {
		t.Fatal(err)
	}
	if l.Seq() != 2 {
		t.Fatalf("seq after snapshot = %d, want 2", l.Seq())
	}
	if err := l.Append([]byte("post-snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Only the new segment and the snapshot remain.
	if _, err := os.Stat(segmentPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("old segment not deleted: %v", err)
	}
	l2, rec := openT(t, dir, noTimer)
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
	l, _ := openT(t, dir, noTimer)
	if err := l.Append([]byte("live")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash window 1: next segment created, snapshot never installed.
	if err := os.WriteFile(segmentPath(dir, 2), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := openT(t, dir, noTimer)
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
	l, rec = openT(t, dir, noTimer)
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
	l, _ := openT(t, dir, Options{FlushInterval: -1, FlushEvery: 1024, Sync: SyncEveryRecord})
	if err := l.Append([]byte("durable")); err != nil {
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

func TestBackgroundFlusher(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{FlushInterval: 5 * time.Millisecond, FlushEvery: 1 << 20, Sync: SyncNone})
	defer l.Close()
	if err := l.Append([]byte("buffered")); err != nil {
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
	l, _ := openT(t, dir, noTimer)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
	if err := l.Snapshot(nil); err != ErrClosed {
		t.Fatalf("Snapshot after Close = %v, want ErrClosed", err)
	}
}

func TestCorruptSnapshotIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, noTimer)
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
	if _, _, err := Open(dir, noTimer); err == nil {
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
	l, _ := openT(t, dir, Options{FlushInterval: -1, FlushEvery: 2, Metrics: reg})
	if err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("two")); err != nil { // triggers a flush (+fsync)
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
