package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALDecode is the decoder's safety contract, the same one
// internal/persist pins for its JSON loaders: arbitrary bytes — corrupt,
// truncated, hostile — must never panic the scanner, must never yield a
// record whose checksum doesn't match, and truncating a valid log at any
// byte must recover exactly a prefix of its records.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a log at all"))
	// A valid two-record image.
	valid := AppendFrame(nil, []byte("alpha"))
	valid = AppendFrame(valid, []byte("beta-which-is-longer"))
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	// A length prefix claiming far more than the buffer holds.
	huge := binary.LittleEndian.AppendUint32(nil, 1<<30)
	huge = binary.LittleEndian.AppendUint32(huge, 0)
	f.Add(huge)
	// A good frame followed by a checksum flip.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xFF
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		records, offset := ScanRecords(data)
		if offset < 0 || offset > len(data) {
			t.Fatalf("offset %d outside [0, %d]", offset, len(data))
		}
		// Every accepted record must re-verify, and re-framing the accepted
		// prefix must reproduce the consumed bytes exactly.
		var reframed []byte
		for _, r := range records {
			if len(r) > MaxRecord {
				t.Fatalf("accepted oversized record of %d bytes", len(r))
			}
			reframed = AppendFrame(reframed, r)
		}
		if !bytes.Equal(reframed, data[:offset]) {
			t.Fatalf("re-framed prefix diverges from consumed input")
		}
		// Truncating the accepted region at any frame boundary must yield a
		// record-count prefix (spot-check the last boundary).
		if len(records) > 0 {
			lastLen := frameSize + len(records[len(records)-1])
			sub, subOff := ScanRecords(data[:offset-lastLen])
			if subOff != offset-lastLen || len(sub) != len(records)-1 {
				t.Fatalf("prefix scan: %d records at %d, want %d at %d",
					len(sub), subOff, len(records)-1, offset-lastLen)
			}
		}
	})
}

// FuzzWALOpen feeds arbitrary bytes in as a segment file (and, flipped, as
// a snapshot file): Open must never panic and must either recover cleanly
// or fail with an error — and whatever it recovers must survive an
// append+reopen cycle. Where Open cuts a segment, the cut must be a torn
// tail, not corruption: the frame there is not one whose length is in
// bounds and whose checksum fails with an intact non-empty frame after it.
func FuzzWALOpen(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte("short"), false)
	good := make([]byte, 0, 64)
	good = append(good, logMagic[:]...)
	good = binary.LittleEndian.AppendUint64(good, 1)
	good = AppendFrame(good, []byte("one record"))
	f.Add(good, false)
	f.Add(good[:len(good)-2], false)
	snap := append([]byte{}, snapMagic[:]...)
	snap = binary.LittleEndian.AppendUint64(snap, 1)
	snap = AppendFrame(snap, []byte("snapshot payload"))
	f.Add(snap, true)
	f.Add(snap[:len(snap)-1], true)
	three := AppendFrame(AppendFrame(bytes.Clone(good), []byte("second record")), []byte("third"))
	last := len(three) - frameSize - len("third")
	middle := append([]byte(nil), three...)
	middle[len(good)+frameSize] ^= 0xFF // a payload byte of the middle record
	f.Add(middle, false)
	f.Add(three[:last+5], false) // a cut inside the last frame's header
	lastSum := append([]byte(nil), three...)
	lastSum[last+4] ^= 0xFF // the last frame's checksum
	f.Add(lastSum, false)

	f.Fuzz(func(t *testing.T, data []byte, asSnapshot bool) {
		dir := t.TempDir()
		name := segmentPath(dir, 1)
		if asSnapshot {
			name = filepath.Join(dir, "snapshot")
		}
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(dir, Options{}, nil, nil)
		if err != nil {
			return // a loud failure (corruption) is allowed; a panic is not
		}
		if st, err := os.Stat(name); err == nil && !asSnapshot && validHeader(data, 1) && rec.Truncated {
			cut := int(st.Size())
			rest := data[cut:]
			if n := len(rest) - frameSize; n >= 0 {
				size := binary.LittleEndian.Uint32(rest[:4])
				if size <= MaxRecord && int(size) <= n &&
					crc32.ChecksumIEEE(rest[frameSize:frameSize+int(size)]) != binary.LittleEndian.Uint32(rest[4:8]) {
					if after, _ := ScanRecords(rest[frameSize+int(size):]); len(after) > 0 && len(after[0]) > 0 {
						t.Fatalf("Open cut at byte %d, a bad frame with an intact one after it", cut)
					}
				}
			}
		}
		if _, err := l.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("recovered log rejects appends: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, rec2, err := Open(dir, Options{}, nil, nil)
		if err != nil {
			t.Fatalf("reopen after recovery+append: %v", err)
		}
		defer l2.Close()
		if want := len(rec.Records) + 1; len(rec2.Records) != want {
			t.Fatalf("reopen recovered %d records, want %d", len(rec2.Records), want)
		}
		if got := rec2.Records[len(rec2.Records)-1]; string(got) != "post-recovery" {
			t.Fatalf("appended record came back as %q", got)
		}
	})
}

// crc sanity: the scanner's checksum is the one AppendFrame writes.
func TestFrameChecksum(t *testing.T) {
	payload := []byte("check me")
	framed := AppendFrame(nil, payload)
	if got := binary.LittleEndian.Uint32(framed[4:8]); got != crc32.ChecksumIEEE(payload) {
		t.Fatalf("frame crc %08x, want %08x", got, crc32.ChecksumIEEE(payload))
	}
}
