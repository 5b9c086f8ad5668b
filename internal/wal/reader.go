package wal

// Read-only access to a durability directory for offline auditing. Nothing
// in this file mutates the directory: segments are opened read-only, torn
// tails are reported instead of truncated, and no lock is taken against a
// live writer — the only write-side coordination needed is that a segment,
// once superseded by a rotation, is never appended to again, so every
// retained (non-active) segment is immutable.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// SegmentRef names one log segment on disk.
type SegmentRef struct {
	Seq  uint64
	Path string
}

// ListSegments enumerates the wal-*.log segments in dir in ascending
// sequence order. It is the entry point of the read-only segment iterator:
// walk the refs, ReadSegment each.
func ListSegments(dir string) ([]SegmentRef, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	var refs []SegmentRef
	for _, e := range entries {
		if seq, ok := segmentSeq(e.Name()); ok {
			refs = append(refs, SegmentRef{Seq: seq, Path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Seq < refs[j].Seq })
	return refs, nil
}

// ReadSegment reads one segment without modifying it: the file is opened
// read-only and a torn or corrupt tail is reported via truncated, not
// repaired. An empty or partially-written header (a crash window the writer
// would reset) reads as zero records with truncated set.
func ReadSegment(ref SegmentRef) (records [][]byte, truncated bool, err error) {
	data, err := os.ReadFile(ref.Path)
	if err != nil {
		return nil, false, fmt.Errorf("wal: reading segment: %w", err)
	}
	if !validHeader(data, ref.Seq) {
		return nil, true, nil
	}
	records, good := ScanRecords(data[headerSize:])
	return records, headerSize+good != len(data), nil
}

// View is the read-only reconstruction of a durability directory.
type View struct {
	// FullHistory reports that a contiguous segment chain starting at
	// sequence 1 is present (Options.Retain kept every rotation), so
	// Records is the complete mutation history from the empty state and
	// Snapshot can be ignored for replay.
	FullHistory bool
	// Snapshot is the latest intact snapshot payload, nil if none exists.
	// When FullHistory is false, replay must start from it.
	Snapshot []byte
	// SnapshotSeq is the segment the snapshot hands over to (0 without one).
	SnapshotSeq uint64
	// Records are the record payloads in append order: from segment 1 when
	// FullHistory, otherwise from SnapshotSeq onward.
	Records [][]byte
	// Segments is the number of segment files contributing to Records.
	Segments int
	// Truncated reports a torn tail on the final segment — expected after a
	// crash; Records then holds the intact prefix.
	Truncated bool
}

// ErrNoHistory means the directory holds neither a snapshot nor a segment
// chain a replay could start from.
var ErrNoHistory = errors.New("wal: directory has no snapshot and no contiguous segment chain")

// ReadDir assembles the read-only view of a durability directory: the full
// record history when a retained contiguous chain from segment 1 exists,
// otherwise snapshot + the records appended after it. A torn tail on the
// final segment yields the intact prefix (View.Truncated); a torn interior
// segment is corruption and errors loudly.
func ReadDir(dir string) (View, error) {
	var v View
	snap, snapSeq, err := readSnapshotFile(filepath.Join(dir, "snapshot"))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// No snapshot: genesis replay or nothing at all.
	case err != nil:
		return View{}, err
	default:
		v.Snapshot = snap
		v.SnapshotSeq = snapSeq
	}
	refs, err := ListSegments(dir)
	if err != nil {
		return View{}, err
	}
	// Segments above the snapshot's never received a record (rotation
	// installs the snapshot before switching appends); a stale one from an
	// interrupted rotation is not history.
	if v.Snapshot != nil {
		trimmed := refs[:0]
		for _, r := range refs {
			if r.Seq <= v.SnapshotSeq {
				trimmed = append(trimmed, r)
			}
		}
		refs = trimmed
	}
	start := 0
	if len(refs) > 0 && refs[0].Seq == 1 && contiguous(refs) {
		v.FullHistory = true
	} else {
		if v.Snapshot == nil {
			return View{}, ErrNoHistory
		}
		// Without the full chain, replayable records start at the segment
		// the snapshot names; anything older is already folded in.
		start = len(refs)
		for i, r := range refs {
			if r.Seq >= v.SnapshotSeq {
				start = i
				break
			}
		}
		if !contiguous(refs[start:]) {
			return View{}, fmt.Errorf("wal: segment chain after snapshot (seq %d) has gaps", v.SnapshotSeq)
		}
	}
	for i, r := range refs[start:] {
		records, truncated, err := ReadSegment(r)
		if err != nil {
			return View{}, err
		}
		v.Records = append(v.Records, records...)
		v.Segments++
		if truncated {
			if i != len(refs[start:])-1 {
				return View{}, fmt.Errorf("wal: segment %d is corrupt mid-chain", r.Seq)
			}
			v.Truncated = true
		}
	}
	return v, nil
}

func contiguous(refs []SegmentRef) bool {
	for i := 1; i < len(refs); i++ {
		if refs[i].Seq != refs[i-1].Seq+1 {
			return false
		}
	}
	return true
}
