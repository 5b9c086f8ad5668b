package wal

import (
	"fmt"
	"os"
	"reflect"
	"testing"
)

// writeRecords appends n numbered records and returns their payloads.
func writeRecords(t *testing.T, l *Log, from, n int) [][]byte {
	t.Helper()
	var out [][]byte
	for i := from; i < from+n; i++ {
		p := []byte(fmt.Sprintf("record-%04d", i))
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestRetainKeepsFullHistory: with Retain on, every rotation seals and keeps
// the old segment (including records still buffered at rotation time), so
// ReadDir reconstructs the complete record history from genesis.
func TestRetainKeepsFullHistory(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Retain: true, Sync: SyncNone}
	l, rec, err := Open(dir, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	var want [][]byte
	// Three snapshot cycles of ten records, short of a group commit, so
	// rotation usually finds them buffered and the seal path must keep them;
	// when the 50 ms flusher ticks first they reach the segment by the flush
	// path instead. Either way every record must be retained.
	for cycle := 0; cycle < 3; cycle++ {
		want = append(want, writeRecords(t, l, cycle*10, 10)...)
		if err := l.Snapshot([]byte(fmt.Sprintf("snap-%d", cycle))); err != nil {
			t.Fatal(err)
		}
	}
	want = append(want, writeRecords(t, l, 30, 5)...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	refs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 4 {
		t.Fatalf("want 4 retained segments, got %d", len(refs))
	}
	v, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !v.FullHistory {
		t.Fatal("retained chain from segment 1 must report FullHistory")
	}
	if v.Truncated {
		t.Fatal("clean close must not report a torn tail")
	}
	if !reflect.DeepEqual(v.Records, want) {
		t.Fatalf("ReadDir records diverge: got %d, want %d", len(v.Records), len(want))
	}
	if string(v.Snapshot) != "snap-2" {
		t.Fatalf("latest snapshot payload %q", v.Snapshot)
	}

	// Serving recovery must still read only snapshot + active segment.
	l2, rec2, err := Open(dir, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if string(rec2.Snapshot) != "snap-2" || len(rec2.Records) != 5 {
		t.Fatalf("reopen recovered snapshot %q + %d records, want snap-2 + 5",
			rec2.Snapshot, len(rec2.Records))
	}
	if got, err := ListSegments(dir); err != nil || len(got) != 4 {
		t.Fatalf("reopen with Retain must keep history segments: %d (%v)", len(got), err)
	}
}

// TestRetainOffStillCompacts pins the default behavior: without Retain a
// rotation deletes the superseded segment and reopening prunes strays.
func TestRetainOffStillCompacts(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNone}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	writeRecords(t, l, 0, 4)
	if err := l.Snapshot([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	refs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 {
		t.Fatalf("without Retain want 1 segment, got %d", len(refs))
	}
	if _, err := ReadDir(dir); err != nil {
		t.Fatal(err)
	}
}

// TestReadDirWindowMode: a compacted directory (no retained chain) reads as
// snapshot + tail records, not FullHistory.
func TestReadDirWindowMode(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNone}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	writeRecords(t, l, 0, 3)
	if err := l.Snapshot([]byte("compacted")); err != nil {
		t.Fatal(err)
	}
	tail := writeRecords(t, l, 3, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	v, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v.FullHistory {
		t.Fatal("compacted dir must not claim FullHistory")
	}
	if string(v.Snapshot) != "compacted" || !reflect.DeepEqual(v.Records, tail) {
		t.Fatalf("window view: snapshot %q, %d records", v.Snapshot, len(v.Records))
	}
}

// TestReadDirTornTailReadOnly: a torn tail on the final segment yields the
// intact prefix and leaves the file bytes untouched — the reader must never
// repair a live writer's segment.
func TestReadDirTornTailReadOnly(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Retain: true, Sync: SyncNone}
	l, _, err := Open(dir, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := writeRecords(t, l, 0, 6)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	refs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := refs[len(refs)-1].Path
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := full[:len(full)-3]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	v, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Truncated {
		t.Fatal("torn tail must be reported")
	}
	if !reflect.DeepEqual(v.Records, want[:5]) {
		t.Fatalf("want the 5-record intact prefix, got %d records", len(v.Records))
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, torn) {
		t.Fatal("ReadDir modified the segment file")
	}
}

// TestReadDirMidChainCorruption: a torn interior segment cannot be silently
// skipped — the history is broken and the reader must say so.
func TestReadDirMidChainCorruption(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Retain: true, Sync: SyncNone}
	l, _, err := Open(dir, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	writeRecords(t, l, 0, 4)
	if err := l.Snapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	writeRecords(t, l, 4, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	refs, err := ListSegments(dir)
	if err != nil || len(refs) != 2 {
		t.Fatalf("want 2 segments (%v)", err)
	}
	full, err := os.ReadFile(refs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(refs[0].Path, full[:len(full)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("mid-chain corruption must error")
	}
}

// TestReadDirEmpty: a directory with nothing replayable errors with
// ErrNoHistory rather than fabricating an empty view.
func TestReadDirEmpty(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("empty dir must error")
	}
	// A gap: snapshot names segment 3, no segments at all.
	if err := writeSnapshotFile(dir, 3, []byte("s")); err != nil {
		t.Fatal(err)
	}
	v, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v.FullHistory || len(v.Records) != 0 || string(v.Snapshot) != "s" {
		t.Fatalf("snapshot-only dir: %+v", v)
	}
}
