package broker

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/pacing"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

// recordKinds enumerates the RecordKind constants through String(): a byte
// the method names is a kind the package defines.
func recordKinds() []RecordKind {
	var kinds []RecordKind
	for v := 0; v < 256; v++ {
		if k := RecordKind(v); !strings.HasPrefix(k.String(), "RecordKind(") {
			kinds = append(kinds, k)
		}
	}
	return kinds
}

// writtenRecord is one step of the production-writer scenario: the record a
// mutation (or the batch path) appended, and what it must decode to.
type writtenRecord struct {
	name    string
	payload []byte
	want    DecodedRecord
}

// writeEveryRecord drives every production WAL writer once — registration
// (fixed and billed), top-up, pause and resume, a serial arrival, a batch,
// a conversion and a controller epoch — on a durable broker, mirrored op for
// op on an in-memory twin the expectations are read from, and returns what
// the log actually holds plus the broker's final snapshot payload.
func writeEveryRecord(tb testing.TB) ([]writtenRecord, []byte) {
	tb.Helper()
	ctl := pacing.Default()
	cfg := Config{
		AdTypes: workload.DefaultAdTypes(), AuditWindow: 64, AuditEvery: time.Hour, Controller: &ctl,
	}
	ref, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer ref.Close()
	dir := tb.TempDir()
	cfg.DataDir, cfg.WAL = dir, crashWAL()
	b, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer b.Close()

	var out []writtenRecord
	gamma := func() (float64, float64) {
		return math.Float64frombits(ref.gammaMin.bits.Load()), math.Float64frombits(ref.gammaMax.bits.Load())
	}
	logged := func(offers []Offer) []Offer { // Efficiency is derived, not logged
		if len(offers) == 0 {
			return nil
		}
		cp := append([]Offer(nil), offers...)
		for i := range cp {
			cp[i].Efficiency = 0
		}
		return cp
	}
	arrive := func(a Arrival) ArrivalRecord {
		offers, err := ref.Arrive(a)
		if err != nil {
			tb.Fatal(err)
		}
		e := ArrivalRecord{Customer: a, Offers: logged(offers)}
		e.GammaMin, e.GammaMax = gamma()
		return e
	}

	tags := []float64{1, 0, 0.5}
	specs := []CampaignSpec{
		{Loc: geo.Point{X: 0.5, Y: 0.5}, Radius: 0.2, Budget: 50, Tags: tags,
			Guaranteed: true, Floor: 0.25, Penalty: 2},
		{Loc: geo.Point{X: 0.52, Y: 0.5}, Radius: 0.25, Budget: 80, Tags: tags,
			Billing: model.Billing{Model: model.BillingCPC, ReserveECPM: 5, EventRate: 0.1}},
	}
	for i, spec := range specs {
		for _, br := range []*Broker{ref, b} {
			if id, err := br.RegisterCampaignSpec(spec); err != nil || id != int32(i) {
				tb.Fatalf("register %d: id %d, %v", i, id, err)
			}
		}
		out = append(out, writtenRecord{name: fmt.Sprintf("register/%s", spec.Billing.Model), want: DecodedRecord{
			Kind: RecordRegister, Campaign: int32(i), Loc: spec.Loc, Radius: spec.Radius, Budget: spec.Budget,
			Tags: spec.Tags, Guaranteed: spec.Guaranteed, Floor: spec.Floor, Penalty: spec.Penalty, Billing: spec.Billing,
		}})
	}
	for _, br := range []*Broker{ref, b} {
		if err := br.TopUp(0, 12.5); err != nil {
			tb.Fatal(err)
		}
		if err := br.SetPaused(0, true); err != nil {
			tb.Fatal(err)
		}
		if err := br.SetPaused(0, false); err != nil {
			tb.Fatal(err)
		}
	}
	out = append(out,
		writtenRecord{name: "topup", want: DecodedRecord{Kind: RecordTopUp, Campaign: 0, Amount: 12.5}},
		writtenRecord{name: "pause", want: DecodedRecord{Kind: RecordPause, Campaign: 0, Paused: true}},
		writtenRecord{name: "resume", want: DecodedRecord{Kind: RecordPause, Campaign: 0}})

	// A serial arrival (n = 1), then a batch whose invalid element is dropped
	// and whose zero-capacity element is logged with no offers (n = 3).
	customer := Arrival{Loc: geo.Point{X: 0.51, Y: 0.5}, Capacity: 2, ViewProb: 0.625,
		Interests: []float64{0.9, 0.1, 0.4}, Hour: 13.5}
	serial := arrive(customer)
	if got, err := b.Arrive(customer); err != nil || !reflect.DeepEqual(logged(got), serial.Offers) {
		tb.Fatalf("durable arrive diverged from twin: %+v, %v", got, err)
	}
	var offerID uint64
	var hold float64
	for _, o := range serial.Offers {
		if o.ID != 0 {
			offerID, hold = o.ID, o.Hold
		}
	}
	if len(serial.Offers) < 2 || offerID == 0 {
		tb.Fatalf("scenario must commit a fixed and an escrowed offer, got %+v", serial.Offers)
	}
	out = append(out, writtenRecord{name: "arrivals/serial", want: DecodedRecord{
		Kind: RecordArrivals, Auction: true, Arrivals: []ArrivalRecord{serial}}})

	batch := []Arrival{
		{Loc: geo.Point{X: 0.49, Y: 0.51}, Capacity: 1, ViewProb: 0.5, Interests: []float64{1, 0, 1}, Hour: 14},
		{Capacity: -1},
		{Loc: geo.Point{X: 0.1, Y: 0.9}, ViewProb: 0.5, Hour: 15},
		{Loc: geo.Point{X: 0.5, Y: 0.52}, Capacity: 3, ViewProb: 0.75, Interests: []float64{0.2, 0.3, 0.9}, Hour: 16},
	}
	want := DecodedRecord{Kind: RecordArrivals, Auction: true}
	for _, a := range batch {
		if a.Capacity >= 0 {
			want.Arrivals = append(want.Arrivals, arrive(a))
		}
	}
	for i, res := range b.ArriveBatch(batch) {
		if (res.Err != nil) != (batch[i].Capacity < 0) {
			tb.Fatalf("batch element %d: %v", i, res.Err)
		}
	}
	out = append(out, writtenRecord{name: "arrivals/batch", want: want})

	for _, br := range []*Broker{ref, b} {
		if _, err := br.Convert(offerID, "evt-1"); err != nil {
			tb.Fatal(err)
		}
	}
	out = append(out, writtenRecord{name: "conversion", want: DecodedRecord{
		Kind: RecordConversion, OfferID: offerID, Campaign: 1, Model: model.BillingCPC, Charge: hold, EventKey: "evt-1"}})

	var dec pacing.Decision
	for _, br := range []*Broker{ref, b} {
		if _, err := br.AuditNow(); err != nil {
			tb.Fatal(err)
		}
		if dec, err = br.PacingStep(); err != nil {
			tb.Fatal(err)
		}
	}
	want = DecodedRecord{Kind: RecordController, Epoch: 1, BoostBits: ref.phiBoost.bits.Load()}
	for _, r := range dec.Rates {
		fl := ref.dir.Load()
		want.Controller = append(want.Controller, ControllerEntry{
			Campaign: r.ID, RateBits: fl.campaigns[r.ID].rate.bits.Load(), AllowanceBits: fl.row(r.ID).allowance.bits.Load()})
	}
	out = append(out, writtenRecord{name: "controller", want: want})

	flushWAL(tb, b)
	v, err := wal.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if len(v.Records) != len(out) {
		tb.Fatalf("scenario expects %d records, the log holds %d", len(out), len(v.Records))
	}
	for i := range out {
		out[i].payload = v.Records[i]
	}
	return out, b.encodeSnapshot()
}

// TestRecordRoundTrip decodes what the production writers actually wrote —
// no hand-mirrored encoder — and requires every field back bit for bit, one
// row per record, with every RecordKind covered.
func TestRecordRoundTrip(t *testing.T) {
	records, _ := writeEveryRecord(t)
	covered := make(map[RecordKind]bool)
	for _, rec := range records {
		got, err := DecodeRecord(rec.payload)
		if err != nil {
			t.Fatalf("%s: %v", rec.name, err)
		}
		if !reflect.DeepEqual(got, rec.want) {
			t.Errorf("%s: decoded\n got %+v\nwant %+v", rec.name, got, rec.want)
		}
		covered[got.Kind] = true
	}
	kinds := recordKinds()
	if len(kinds) != 6 {
		t.Errorf("RecordKind constants: %v, want exactly six", kinds)
	}
	for _, k := range kinds {
		if !covered[k] {
			t.Errorf("no production writer in the scenario produced a %v record", k)
		}
	}
}

// TestDesignRecordTable holds DESIGN.md §10's layout table to the code: one
// row per RecordKind, named by its String() with its type byte, no other
// rows, and the snapshot version the prose states.
func TestDesignRecordTable(t *testing.T) {
	md, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(md), "| record | type byte | payload after the type byte, in field order |\n|---|---|---|\n")
	if !ok {
		t.Fatal("DESIGN.md: record layout table header not found")
	}
	want := make(map[string]string)
	for _, k := range recordKinds() {
		want["`"+k.String()+"`"] = fmt.Sprint(byte(k))
	}
	rows := 0
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, " | ")
		if !strings.HasPrefix(line, "| ") || len(cells) < 3 {
			break
		}
		rows++
		if name := strings.TrimPrefix(cells[0], "| "); want[name] != cells[1] {
			t.Errorf("DESIGN.md record table row %s: doc says type byte %s, the code says %q", name, cells[1], want[name])
		}
	}
	if rows != len(want) {
		t.Errorf("DESIGN.md record table has %d rows, the code %d RecordKinds", rows, len(want))
	}
	if stated := fmt.Sprintf("payload is version byte %d,", snapshotVersion); !strings.Contains(string(md), stated) {
		t.Errorf("DESIGN.md §10 does not state the snapshot %q", stated)
	}
}

// TestDecodeSnapshotRoundTrip: encodeSnapshot → DecodeSnapshot preserves
// every accumulator bit and campaign field.
func TestDecodeSnapshotRoundTrip(t *testing.T) {
	b := newTestBroker(t)
	id, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 10, []float64{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetPaused(id, true); err != nil {
		t.Fatal(err)
	}
	b.arrivals.Store(42)
	b.offers.Store(7)
	b.utility.bits.Store(math.Float64bits(3.75))
	b.spent.bits.Store(math.Float64bits(1.25))

	s, err := DecodeSnapshot(b.encodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if s.Arrivals != 42 || s.Offers != 7 {
		t.Fatalf("counters %d/%d", s.Arrivals, s.Offers)
	}
	if math.Float64frombits(s.UtilityBits) != 3.75 || math.Float64frombits(s.SpentBits) != 1.25 {
		t.Fatal("accumulator bits lost")
	}
	if len(s.Campaigns) != 1 {
		t.Fatalf("campaigns %d", len(s.Campaigns))
	}
	c := &s.Campaigns[0]
	if c.ID != id || !c.Paused || c.Budget() != 10 || c.Radius != 0.2 ||
		!reflect.DeepEqual(c.Tags, []float64{1, 0, 1}) {
		t.Fatalf("campaign %+v", c)
	}
}

// TestPersistedBytesMatchGolden is the byte-level fence under the codec:
// every payload writeEveryRecord's production writers put in the log, and
// the final snapshot, must equal testdata/persisted.golden — the hex bytes
// and the decoded value, floats as their Float64bits — recorded before the
// writers and readers shared one layout statement. A round trip cannot see a
// field both directions moved together; this can. Regenerate (`go test
// ./internal/broker -run PersistedBytes -update`) only for an intentional
// layout change, which also takes a fresh type byte or snapshot version.
func TestPersistedBytesMatchGolden(t *testing.T) {
	records, snapshot := writeEveryRecord(t)
	var sb strings.Builder
	for _, rec := range records {
		d, err := DecodeRecord(rec.payload)
		if err != nil {
			t.Fatalf("%s: %v", rec.name, err)
		}
		dumpPersisted(&sb, "record "+rec.name, rec.payload, d)
	}
	s, err := DecodeSnapshot(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	dumpPersisted(&sb, "snapshot", snapshot, s)
	got := sb.String()
	path := filepath.Join("testdata", "persisted.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("persisted bytes or their decoding diverged from the golden (%d vs %d bytes), first diff at byte %d",
			len(got), len(want), firstDiff(got, string(want)))
	}
}

// dumpPersisted renders one payload for the golden: a header, the bytes as
// hex 32 to a line, then every field of the decoded value.
func dumpPersisted(sb *strings.Builder, name string, payload []byte, decoded any) {
	fmt.Fprintf(sb, "== %s (%d bytes)\n", name, len(payload))
	for off := 0; off < len(payload); off += 32 {
		fmt.Fprintf(sb, "%x\n", payload[off:min(off+32, len(payload))])
	}
	dumpValue(sb, "", reflect.ValueOf(decoded))
}

// dumpValue prints v one scalar per line under its field path; floats print
// as their bit pattern so the dump is as exact as the bytes.
func dumpValue(sb *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			dumpValue(sb, name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(sb, "%s len=%d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpValue(sb, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Float64:
		fmt.Fprintf(sb, "%s=%016x\n", path, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int32, reflect.Int64:
		fmt.Fprintf(sb, "%s=%d\n", path, v.Int())
	case reflect.Uint8, reflect.Uint64:
		fmt.Fprintf(sb, "%s=%d\n", path, v.Uint())
	case reflect.Bool:
		fmt.Fprintf(sb, "%s=%t\n", path, v.Bool())
	case reflect.String:
		fmt.Fprintf(sb, "%s=%q\n", path, v.String())
	default:
		panic(fmt.Sprintf("dumpValue: %s has unhandled kind %s", path, v.Kind()))
	}
}

// TestDecodeRecordMalformed: decoders are total — truncated, trailing-junk
// and unknown-type payloads error, never panic — and canonical: a flag byte
// other than 0 or 1 is refused, not read as true.
func TestDecodeRecordMalformed(t *testing.T) {
	records, snapshot := writeEveryRecord(t)
	set := func(payload []byte, i int, v byte) []byte {
		out := bytes.Clone(payload)
		out[i] = v
		return out
	}
	cases := map[string][]byte{
		"empty":          nil,
		"unknown type":   {99, 0, 0},
		"huge count":     {byte(RecordArrivals), 0xFF, 0xFF, 0xFF, 0xFF, 0},
		"zero count":     {byte(RecordArrivals), 0, 0, 0, 0, 0},
		"reserved flags": append([]byte{byte(RecordArrivals), 1, 0, 0, 0, 0x80}, make([]byte, 60)...),
		// type, id, loc and radius, budget: the guaranteed flag is byte 37.
		"guaranteed flag 2": set(records[0].payload, 37, 2),
		"paused flag 2":     set(records[3].payload, len(records[3].payload)-1, 2),
	}
	for _, rec := range records {
		cases[rec.name+" truncated"] = rec.payload[:len(rec.payload)-3]
		cases[rec.name+" trailing"] = append(append([]byte(nil), rec.payload...), 0xFF)
	}
	for name, rec := range cases {
		if _, err := DecodeRecord(rec); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	for name, data := range map[string][]byte{
		"empty":       nil,
		"truncated":   snapshot[:len(snapshot)-3],
		"trailing":    append(append([]byte(nil), snapshot...), 0xFF),
		"bad version": {0xEE},
		// version, eight words, count; then id, loc, radius, budget and spent
		// bits: the first campaign's paused flag is byte 113.
		"paused flag 2": set(snapshot, 113, 2),
	} {
		if _, err := DecodeSnapshot(data); err == nil {
			t.Errorf("snapshot %s: no error", name)
		}
	}
}

// Hand-built payloads of the layouts older builds wrote, for the refusal
// tests only: field for field what those writers emitted.
func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func retiredOffers(buf []byte, wide bool) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, 1)
	buf = binary.LittleEndian.AppendUint32(buf, 3) // campaign
	buf = binary.LittleEndian.AppendUint32(buf, 1) // ad type
	buf = appendF64(appendF64(buf, 0.25), 1.5)     // cost, utility
	if wide {
		buf = binary.LittleEndian.AppendUint64(buf, 7)
		buf = append(appendF64(appendF64(buf, 12), 0.5), byte(model.BillingCPC))
	}
	return buf
}

func retiredBody(buf []byte, wide bool) []byte {
	buf = appendF64(appendF64(buf, 0.5), 4)        // γ bounds
	buf = appendF64(appendF64(buf, 0.25), 0.75)    // loc
	buf = binary.LittleEndian.AppendUint32(buf, 2) // capacity
	buf = appendF64(appendF64(buf, 0.6), 13)       // view prob, hour
	buf = binary.LittleEndian.AppendUint32(buf, 1)
	buf = appendF64(buf, 0.9) // one interest
	return retiredOffers(buf, wide)
}

func retiredRegister(kind byte) []byte {
	buf := binary.LittleEndian.AppendUint32([]byte{kind}, 0)
	for _, v := range []float64{0.5, 0.5, 0.2, 10} { // loc, radius, budget
		buf = appendF64(buf, v)
	}
	if kind == 6 { // the delivery class
		buf = appendF64(appendF64(append(buf, 1), 0.3), 2)
	}
	buf = binary.LittleEndian.AppendUint32(buf, 1)
	return appendF64(buf, 1)
}

func retiredRecords() map[byte][]byte {
	return map[byte][]byte{
		1:  retiredRegister(1),
		4:  retiredOffers(appendF64(appendF64([]byte{4}, 0.5), 4), false),
		5:  retiredBody([]byte{5}, false),
		6:  retiredRegister(6),
		8:  retiredBody([]byte{8, 1, 0, 0, 0}, false),
		10: retiredBody([]byte{10}, true),
		11: retiredBody([]byte{11, 1, 0, 0, 0}, true),
	}
}

// TestRetiredFormatsRefused: every type byte and snapshot version an older
// build wrote is refused with an error naming the byte — never decoded as
// something else — and recovery from a directory holding one fails without
// touching a file.
func TestRetiredFormatsRefused(t *testing.T) {
	retired := retiredRecords()
	live := make(map[byte]bool)
	for _, k := range recordKinds() {
		live[byte(k)] = true
	}
	for v := byte(1); v <= byte(RecordArrivals); v++ {
		if _, ok := retired[v]; ok == live[v] {
			t.Errorf("type byte %d: retired %v, live %v — every byte up to %d is exactly one", v, ok, live[v], byte(RecordArrivals))
		}
	}
	for kind, payload := range retired {
		_, err := DecodeRecord(payload)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("record type %d ", kind)) {
			t.Errorf("retired record type %d: error %v does not name the byte", kind, err)
		}
	}
	for _, version := range []byte{1, 2} {
		words := 6 // v1: counters, accumulators, γ bounds
		if version == 2 {
			words = 8 // plus boost and epoch
		}
		payload := append([]byte{version}, make([]byte, words*8+4)...) // no campaigns
		_, err := DecodeSnapshot(payload)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("snapshot version %d ", version)) {
			t.Errorf("retired snapshot version %d: error %v does not name the byte", version, err)
		}
	}

	// Directory level: a current snapshot followed by a segment that holds a
	// retired record.
	dir := t.TempDir()
	cfg := Config{AdTypes: workload.DefaultAdTypes(), DataDir: dir, WAL: crashWAL()}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 10, []float64{1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	log, _, err := wal.Open(dir, cfg.WAL, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(retired[5]); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	before := hashDir(t, dir)
	if len(before) != 2 {
		t.Fatalf("want a snapshot and one segment, got %v", before)
	}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "record type 5 ") {
		t.Fatalf("recovery over a retired record: %v", err)
	}
	if after := hashDir(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused recovery modified the directory:\nbefore %v\nafter  %v", before, after)
	}
}

// hashDir maps every file in dir to the SHA-256 of its contents.
func hashDir(t *testing.T, dir string) map[string][sha256.Size]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][sha256.Size]byte)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = sha256.Sum256(data)
	}
	return out
}

// decodeAllocated reports the bytes fn allocated: the smallest of three
// process-wide TotalAlloc deltas, so a background goroutine's allocation in
// one of them does not count against the decoder.
func decodeAllocated(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	var m0, m1 runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		if d := m1.TotalAlloc - m0.TotalAlloc; d < least {
			least = d
		}
	}
	return least
}

// checkDecoder is the fuzz contract both decoders share: on any input decode
// never panics and allocates O(len(payload)) — the factor covers the widest
// expansion, a 4-byte empty idempotency key becoming a 16-byte string header
// in a slice grown by doubling — and a payload it accepts was consumed to
// the last byte, so the same payload with one more byte is refused.
func checkDecoder(t *testing.T, payload []byte, decode func([]byte) error) {
	var err error
	if got, limit := decodeAllocated(func() { err = decode(payload) }), 64*uint64(len(payload))+4096; got > limit {
		t.Fatalf("decoding %d bytes allocated %d, bound %d", len(payload), got, limit)
	}
	if err != nil {
		return
	}
	if decode(append(bytes.Clone(payload), 0)) == nil {
		t.Fatalf("payload %x decodes with and without a trailing byte", payload)
	}
}

// checkCanonical is the property on top of checkDecoder: a payload the
// decoder accepted re-encodes through the same codec method to exactly its
// own bytes, so the codec is its own inverse on arbitrary input, not only on
// what the writers produced.
func checkCanonical(t *testing.T, payload, reencoded []byte) {
	if !bytes.Equal(reencoded, payload) {
		t.Fatalf("payload %x decodes but re-encodes as %x", payload, reencoded)
	}
}

// FuzzDecodeRecord holds DecodeRecord to checkDecoder and checkCanonical,
// seeded with what the production writers wrote, truncations of it, and the
// retired layouts.
func FuzzDecodeRecord(f *testing.F) {
	records, _ := writeEveryRecord(f)
	for _, rec := range records {
		f.Add(rec.payload)
		f.Add(rec.payload[:len(rec.payload)/2])
	}
	for _, payload := range retiredRecords() {
		f.Add(payload)
	}
	f.Add([]byte{byte(RecordArrivals), 0xFF, 0xFF, 0xFF, 0xFF, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecoder(t, payload, func(p []byte) error { _, err := DecodeRecord(p); return err })
		if d, err := DecodeRecord(payload); err == nil {
			var c codec
			c.record(&d)
			checkCanonical(t, payload, c.buf)
		}
	})
}

// FuzzDecodeSnapshot holds DecodeSnapshot to the same contract.
func FuzzDecodeSnapshot(f *testing.F) {
	_, snapshot := writeEveryRecord(f)
	f.Add(snapshot)
	f.Add(snapshot[:len(snapshot)/2])
	f.Add(append([]byte{snapshotVersion}, bytes.Repeat([]byte{0xFF}, 80)...))
	f.Add([]byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecoder(t, payload, func(p []byte) error { _, err := DecodeSnapshot(p); return err })
		if s, err := DecodeSnapshot(payload); err == nil {
			var c codec
			c.snapshot(&s)
			checkCanonical(t, payload, c.buf)
		}
	})
}
