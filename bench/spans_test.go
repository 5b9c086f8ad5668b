package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeIsSpanMinusCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},   // overlaps a: 30–40 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},  // reaches past the parent: only 90–100 counts
		{ID: 5, Parent: 2, Name: "a.a", Start: 10, End: 20}, // a grandchild is its parent's business
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{
		1: 100 - (50 + 10), // a∪b covers 10–60, c covers 90–100
		2: 30 - 10,
		3: 30,
		4: 40,
		5: 10,
		6: 7,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	tot := totalsByName(spans)
	if r := tot["root"]; r.Count != 1 || r.TotalUs != 0.1 || r.SelfUs != 0.04 {
		t.Errorf("root totals = %+v", r)
	}
}

func TestNilSpanLogRecordsNothing(t *testing.T) {
	var l *spanLog
	ran := false
	l.do("x", 0, func(id uint64) { ran = id == 0 })
	if !ran {
		t.Error("a nil log must still run the function, with id 0")
	}
	l.add(span{})
	if b := l.buf(8); b != nil {
		t.Error("a nil log must hand out nil buffers")
	}
	var b *spanBuf
	b.add(span{})
	b.flush()
}

func TestSpanBufferFlushAndFile(t *testing.T) {
	l := &spanLog{}
	b := l.buf(4)
	parent := l.id()
	for i := 0; i < 3; i++ {
		b.add(span{ID: l.id(), Parent: parent, Name: "client.roundtrip", Start: int64(i), End: int64(i + 1), Req: uint64(i)})
	}
	b.flush()
	l.add(span{ID: parent, Name: "bench.window", Start: 0, End: 3})
	if len(l.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(l.spans))
	}
	path := filepath.Join(t.TempDir(), "x.spans.jsonl")
	if err := writeSpans(path, l.spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d: %v", n+1, err)
		}
		if s != l.spans[n] {
			t.Errorf("line %d round-trips to %+v, want %+v", n+1, s, l.spans[n])
		}
	}
	if n != 4 {
		t.Errorf("%d lines, want 4", n)
	}
}
