package wal

// Reading a durability directory: one scan and one segment parser, shared by
// Open, which then repairs and continues the active segment, and ReadDir,
// which assembles the retained chain and modifies nothing. ReadDir takes no
// lock against a live writer: a segment superseded by a rotation is sealed,
// never appended to again.

import (
	"encoding/binary"
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
// sequence order.
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

// dirScan is one read of a durability directory.
type dirScan struct {
	snap    []byte // the snapshot payload, nil without a snapshot file
	snapSeq uint64 // the segment the snapshot hands over to
	active  uint64 // the segment appends continue: snapSeq, or 1 without a snapshot
	refs    []SegmentRef
}

// scanDir reads dir's snapshot, failing on a damaged one, and lists its
// segments; every segment below the active one is sealed.
func scanDir(dir string) (dirScan, error) {
	s := dirScan{active: 1}
	path := filepath.Join(dir, "snapshot")
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh directory, or one that never compacted.
	case err != nil:
		return dirScan{}, err
	case len(data) < headerSize || [8]byte(data[:8]) != snapMagic:
		return dirScan{}, fmt.Errorf("wal: %s is not a snapshot file", path)
	default:
		payload, _, ok := frameAt(data[headerSize:])
		if !ok || headerSize+frameSize+len(payload) != len(data) {
			return dirScan{}, fmt.Errorf("wal: snapshot %s is corrupt", path)
		}
		s.snap, s.snapSeq = payload, binary.LittleEndian.Uint64(data[8:16])
		s.active = s.snapSeq
	}
	s.refs, err = ListSegments(dir)
	return s, err
}

// segment is one segment file as parseSegment reads it.
type segment struct {
	records [][]byte // the intact records, aliasing the file image
	good    int      // bytes of header and intact records; 0 without an intact header
	torn    bool     // bytes follow good: a torn tail
}

// parseSegment reads segment seq's file image under the log's one
// corruption rule. A frame whose length is in bounds but whose checksum
// fails, with an intact non-empty frame right after it, is corruption: a
// crash tears only a file's end, so the records after it were acknowledged.
// A sealed segment has no tail to tear, so any bad frame or header in it is
// corruption. Corruption is an error naming the file and the bad frame's
// offset. Any other bad frame, or a partial header, in the active segment
// is a torn tail. (An empty frame is eight zero bytes, like the zero fill a
// crash can leave past a file's end, so it does not count as intact.)
func parseSegment(path string, seq uint64, data []byte, sealed bool) (segment, error) {
	if !validHeader(data, seq) {
		if sealed {
			return segment{}, fmt.Errorf("wal: segment %s is corrupt at byte 0: bad header", path)
		}
		return segment{torn: len(data) > 0}, nil
	}
	records, off := ScanRecords(data[headerSize:])
	at := headerSize + off
	if at < len(data) {
		corrupt := sealed
		if payload, fits, _ := frameAt(data[at:]); fits {
			next, _, ok := frameAt(data[at+frameSize+len(payload):])
			corrupt = corrupt || ok && len(next) > 0
		}
		if corrupt {
			return segment{}, fmt.Errorf("wal: segment %s is corrupt at byte %d", path, at)
		}
	}
	return segment{records: records, good: at, torn: at < len(data)}, nil
}

// View is a durability directory as a replay reads it: ReadDir's read-only
// reconstruction, or what Open found in the directory its log continues.
type View struct {
	// FullHistory reports that Records is the complete mutation history
	// from the empty state — a contiguous chain from segment 1, because
	// Options.Retain kept every rotation or none happened yet — so
	// Snapshot can be ignored for replay.
	FullHistory bool
	// Snapshot is the latest intact snapshot payload, nil if none exists.
	// When FullHistory is false, replay must start from it.
	Snapshot []byte
	// Records are the record payloads in append order: from segment 1 when
	// FullHistory, otherwise from the segment the snapshot hands over to.
	Records [][]byte
	// Truncated reports a torn tail on the active segment — expected after
	// a crash; Records then holds the intact prefix, to which Open has cut
	// the file back.
	Truncated bool
}

// ErrNoHistory means the directory holds neither a snapshot nor a segment
// chain a replay could start from.
var ErrNoHistory = errors.New("wal: directory has no snapshot and no contiguous segment chain")

// ReadDir assembles the read-only view of a durability directory: the full
// record history when a retained contiguous chain from segment 1 exists,
// otherwise snapshot + the records appended after it. A torn tail on the
// active segment yields the intact prefix (View.Truncated); corruption
// (parseSegment) is an error.
func ReadDir(dir string) (View, error) {
	s, err := scanDir(dir)
	if err != nil {
		return View{}, err
	}
	v := View{Snapshot: s.snap}
	// Segments above the active one never received a record (rotation
	// installs the snapshot before switching appends): they are not history.
	refs := s.refs
	for len(refs) > 0 && refs[len(refs)-1].Seq > s.active {
		refs = refs[:len(refs)-1]
	}
	if len(refs) > 0 && refs[0].Seq == 1 && contiguous(refs) {
		v.FullHistory = true
	} else {
		if s.snap == nil {
			return View{}, ErrNoHistory
		}
		// Without the full chain, replayable records start at the segment
		// the snapshot names; anything older is already folded in.
		refs = refs[sort.Search(len(refs), func(i int) bool { return refs[i].Seq >= s.active }):]
		if !contiguous(refs) {
			return View{}, fmt.Errorf("wal: segment chain after snapshot (seq %d) has gaps", s.snapSeq)
		}
	}
	for _, r := range refs {
		data, err := os.ReadFile(r.Path)
		if err != nil {
			return View{}, fmt.Errorf("wal: reading segment: %w", err)
		}
		seg, err := parseSegment(r.Path, r.Seq, data, r.Seq < s.active)
		if err != nil {
			return View{}, err
		}
		v.Records = append(v.Records, seg.records...)
		v.Truncated = v.Truncated || seg.torn
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
