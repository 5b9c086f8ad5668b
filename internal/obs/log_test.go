package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// allLevels lets every record through both the sink and the oracle.
const allLevels = slog.Level(math.MinInt32)

// oraclePair is the sink and the slog.JSONHandler it must match, each over
// its own buffer.
type oraclePair struct {
	sink       *LogHandler
	got, want  bytes.Buffer
	h, oracleH slog.Handler // the current (possibly With-derived) pair
}

func newOraclePair() *oraclePair {
	p := &oraclePair{}
	p.sink = NewLogHandler(&p.got, allLevels)
	p.h = p.sink
	p.oracleH = slog.NewJSONHandler(&p.want, &slog.HandlerOptions{Level: allLevels})
	return p
}

func (p *oraclePair) handle(t testing.TB, r slog.Record) {
	t.Helper()
	if err := p.h.Handle(context.Background(), r.Clone()); err != nil {
		t.Fatalf("sink: %v", err)
	}
	if err := p.oracleH.Handle(context.Background(), r.Clone()); err != nil {
		t.Fatalf("oracle: %v", err)
	}
}

// check closes the sink and compares everything it wrote with the oracle,
// line by line so a failure names the record.
func (p *oraclePair) check(t testing.TB) {
	t.Helper()
	if err := p.sink.Close(); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(p.got.Bytes(), p.want.Bytes()) {
		return
	}
	got, want := strings.SplitAfter(p.got.String(), "\n"), strings.SplitAfter(p.want.String(), "\n")
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			g := "<missing>"
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("line %d differs:\n sink %q\n slog %q", i, g, want[i])
		}
	}
	t.Fatalf("sink wrote %d lines, slog %d", len(got), len(want))
}

// nasty are the string fragments JSON, slog and encoding/json treat
// specially, mixed with the plain ones this process actually logs.
var nasty = []string{
	"", " ", "plain", "/v1/arrivals:batch", "127.0.0.1:54321", "http_request",
	`"`, `\`, "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "<", ">", "&", "'",
	"\x80", "\xff", "\xc3", "\xe2\x80", "é", "日本", "\u2028", "\u2029", "\ufffd", "🙂",
}

// gen draws records. One fragment in nastyIn is from the whole nasty list, the
// rest are plain; records vary it, so the stream holds records the fast path
// renders whole, ones it abandons part-way, and ones it never starts.
type gen struct {
	*rand.Rand
	nastyIn int
}

func (g *gen) str() string {
	var sb strings.Builder
	for n := g.Intn(4); n >= 0; n-- {
		if g.Intn(g.nastyIn) == 0 {
			sb.WriteString(nasty[g.Intn(len(nasty))])
		} else {
			sb.WriteString(nasty[1+g.Intn(5)])
		}
	}
	return sb.String()
}

var (
	nastyInts   = []int64{0, 1, -1, 200, math.MaxInt64, math.MinInt64}
	nastyUints  = []uint64{0, 1, math.MaxUint64, math.MaxInt64 + 1}
	nastyFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.25, 1e-6, 1e-7, 9.99e-7, 1e20, 1e21, 1.5e21, 1e-9, 1e-10, 1e100, 1e-100,
		math.SmallestNonzeroFloat64, 2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64,
		0.1 + 0.2, 123456789.123456789, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	nastyLevels = []slog.Level{
		slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError,
		slog.Level(2), slog.Level(-7), slog.Level(100), slog.Level(-1),
	}
	nastyTimes = []time.Time{
		{}, time.Now(), time.Unix(0, 0).UTC(), time.Unix(1700000000, 123456789),
		time.Date(2026, 10, 1, 12, 0, 0, 0, time.FixedZone("", 19800)),
		time.Date(2026, 10, 1, 12, 0, 0, 120000000, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
	}
)

type valuer struct{ s string }

func (v valuer) LogValue() slog.Value { return slog.StringValue(v.s) }

// attr draws one of the five kinds this process logs, or — as often as a
// nasty fragment — a shape the fast path must decline.
func (g *gen) attr() slog.Attr {
	key := g.str()
	if g.Intn(g.nastyIn) == 0 {
		switch g.Intn(8) {
		case 0:
			return slog.Any(key, map[string]any{"a": 1, "<b>": []string{"x"}})
		case 1:
			return slog.Any(key, errors.New(g.str()))
		case 2:
			return slog.Any(key, nil)
		case 3:
			return slog.Group(key, slog.Int("n", 1), slog.String("s", g.str()))
		case 4:
			return slog.Duration(key, time.Duration(g.Int63()))
		case 5:
			return slog.Time(key, nastyTimes[g.Intn(len(nastyTimes))])
		case 6:
			return slog.Any(key, valuer{g.str()})
		}
		return slog.Attr{}
	}
	switch g.Intn(9) {
	case 0, 1, 2:
		return slog.String(key, g.str())
	case 3:
		return slog.Int64(key, g.Int63()-g.Int63())
	case 4:
		return slog.Int64(key, nastyInts[g.Intn(len(nastyInts))])
	case 5:
		return slog.Uint64(key, nastyUints[g.Intn(len(nastyUints))])
	case 6:
		return slog.Float64(key, math.Float64frombits(g.Uint64()))
	case 7:
		return slog.Float64(key, nastyFloats[g.Intn(len(nastyFloats))])
	}
	return slog.Bool(key, g.Intn(2) == 0)
}

func (g *gen) record() slog.Record {
	g.nastyIn = []int{3, 30, 1000}[g.Intn(3)]
	r := slog.NewRecord(time.Unix(g.Int63n(4e9), g.Int63n(1e9)), nastyLevels[g.Intn(len(nastyLevels))], g.str(), 0)
	if g.Intn(g.nastyIn) == 0 {
		r.Time = nastyTimes[g.Intn(len(nastyTimes))]
	}
	for n := g.Intn(10); n > 0; n-- { // up to 9: past Record's five inline attrs
		r.AddAttrs(g.attr())
	}
	return r
}

// TestLogHandlerMatchesSlogJSON is the sink's format contract: whatever
// record it is handed, fast path or declined, the bytes that reach the writer
// are the bytes slog.JSONHandler would have written, in the same order.
func TestLogHandlerMatchesSlogJSON(t *testing.T) {
	rng := &gen{Rand: rand.New(rand.NewSource(42)), nastyIn: 3}
	p := newOraclePair()
	for i := 0; i < 20000; i++ {
		// Now and then log through a With-derived handler, then come back.
		switch rng.Intn(200) {
		case 0:
			a := []slog.Attr{rng.attr(), slog.String("svc", "muaa")}
			p.h, p.oracleH = p.h.WithAttrs(a), p.oracleH.WithAttrs(a)
		case 1:
			p.h, p.oracleH = p.h.WithGroup("g"), p.oracleH.WithGroup("g")
		case 2, 3, 4:
			p.h, p.oracleH = p.sink, slog.NewJSONHandler(&p.want, &slog.HandlerOptions{Level: allLevels})
		}
		p.handle(t, rng.record())
	}
	// The line this sink exists for, and one record of each declined shape.
	p.handle(t, accessRecord())
	r := slog.NewRecord(time.Now(), slog.Level(2), "declined", 0)
	r.AddAttrs(slog.Group("g", slog.Int("n", 1)), slog.Any("any", struct{ A, B int }{1, 2}))
	p.handle(t, r)
	p.check(t)
}

// accessRecord is the line this sink exists for, as trace.Middleware builds it.
func accessRecord() slog.Record {
	r := slog.NewRecord(time.Now(), slog.LevelInfo, "http_request", 0)
	r.AddAttrs(slog.String("trace_id", "4bf92f3577b34da6a3ce929d0e0e4736"), slog.String("method", "POST"),
		slog.String("path", "/v1/arrivals"), slog.Int("status", 200), slog.Float64("duration_ms", 0.041293),
		slog.Int64("bytes", 345), slog.String("remote", "127.0.0.1:54321"))
	return r
}

func FuzzLogHandlerString(f *testing.F) {
	for _, s := range nasty {
		f.Add(s, "key", s)
		f.Add("msg", s, "v"+s+"v")
	}
	f.Fuzz(func(t *testing.T, msg, key, val string) {
		p := newOraclePair()
		r := slog.NewRecord(time.Unix(1700000000, 1), slog.LevelInfo, msg, 0)
		r.AddAttrs(slog.String(key, val), slog.Int("n", len(val)))
		p.handle(t, r)
		p.check(t)
	})
}

// writeLog records each Write the sink makes, and can be told to fail.
type writeLog struct {
	mu     sync.Mutex
	writes []string
	wrote  chan struct{} // one token per Write
	fail   error
}

func newWriteLog() *writeLog { return &writeLog{wrote: make(chan struct{}, 1024)} }

func (w *writeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.wrote <- struct{}{}
	if w.fail != nil {
		return 0, w.fail
	}
	w.writes = append(w.writes, string(p))
	return len(p), nil
}

func (w *writeLog) snapshot() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.writes...)
}

// msgs returns the "msg" of every line in the given writes, failing on a
// write that is not a run of whole JSON lines.
func msgs(t *testing.T, writes []string) []string {
	t.Helper()
	var out []string
	for _, w := range writes {
		if !strings.HasSuffix(w, "\n") {
			t.Fatalf("write does not end on a line boundary: %q", w)
		}
		for _, line := range strings.Split(strings.TrimSuffix(w, "\n"), "\n") {
			var m struct{ Msg string }
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			out = append(out, m.Msg)
		}
	}
	return out
}

func TestLogHandlerFlushPolicy(t *testing.T) {
	w := newWriteLog()
	sink := NewLogHandler(w, slog.LevelInfo)
	log := slog.New(sink)

	if sink.Enabled(context.Background(), slog.LevelDebug) || !sink.Enabled(context.Background(), slog.LevelInfo) {
		t.Fatal("Enabled does not follow the level")
	}
	log.Debug("dropped")

	// INFO is held, then written by the timer without anything else asking.
	held := time.Now()
	log.Info("a")
	log.Info("b", "k", 1)
	if n := len(w.snapshot()); n != 0 && time.Since(held) < logFlushEvery {
		t.Fatalf("INFO written through: %d writes", n)
	}
	select {
	case <-w.wrote:
	case <-time.After(10 * time.Second):
		t.Fatal("timer never flushed the held lines")
	}
	if time.Since(held) < logFlushEvery {
		t.Fatalf("flushed after %v, before the %v deadline", time.Since(held), logFlushEvery)
	}
	if got := msgs(t, w.snapshot()); fmt.Sprint(got) != "[a b]" {
		t.Fatalf("timer flush wrote %v, want [a b] in one write", got)
	}

	// WARN goes out inside its own Handle, with what was held, in order.
	log.Info("c")
	log.Warn("d")
	if ws := w.snapshot(); len(ws) != 2 || fmt.Sprint(msgs(t, ws[1:])) != "[c d]" {
		t.Fatalf("after WARN: writes %q", ws)
	}
	log.Error("e")
	if ws := w.snapshot(); len(ws) != 3 || fmt.Sprint(msgs(t, ws[2:])) != "[e]" {
		t.Fatalf("after ERROR: writes %q", ws)
	}

	// 32 KiB flushes without a timer or a WARN, on a line boundary; 1 000
	// access-log-sized lines cost at most 10 writes.
	before := len(w.snapshot())
	pad := strings.Repeat("x", 180)
	for i := 0; i < 1000; i++ {
		log.Info("fill", "pad", pad)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	ws := w.snapshot()[before:]
	if len(ws) < 2 || len(ws) > 10 {
		t.Fatalf("1000 lines took %d writes, want 2..10", len(ws))
	}
	for _, one := range ws[:len(ws)-1] {
		if len(one) < logFlushBytes || len(one) > logFlushBytes+512 {
			t.Fatalf("size-triggered write of %d bytes", len(one))
		}
	}
	if got := msgs(t, ws); len(got) != 1000 {
		t.Fatalf("%d of 1000 lines arrived", len(got))
	}

	// Close is idempotent, and the handler still works after it.
	before = len(w.snapshot())
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(w.snapshot()); n != before {
		t.Fatalf("second Close wrote %d times", n-before)
	}
	log.Info("after-close")
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if ws := w.snapshot(); len(ws) != before+1 || fmt.Sprint(msgs(t, ws[before:])) != "[after-close]" {
		t.Fatalf("after Close: writes %q", ws[before:])
	}
}

// TestLogHandlerFailingWriter: a dead stderr surfaces as Handle's error,
// the lines it was offered are dropped rather than hoarded, and the sink
// works again when the writer does.
func TestLogHandlerFailingWriter(t *testing.T) {
	w := newWriteLog()
	w.fail = errors.New("EPIPE")
	sink := NewLogHandler(w, slog.LevelInfo)
	log := slog.New(sink)
	pad := strings.Repeat("x", 1000)
	for i := 0; i < 200; i++ { // 200 KB offered: several size flushes, all failing
		log.Info("lost", "pad", pad)
	}
	held := func() int {
		sink.b.mu.Lock()
		defer sink.b.mu.Unlock()
		return len(sink.b.buf)
	}
	if n := held(); n >= logFlushBytes {
		t.Fatalf("buffer holds %d bytes behind a failing writer", n)
	}
	r := slog.NewRecord(time.Now(), slog.LevelWarn, "lost-too", 0)
	if err := sink.Handle(context.Background(), r); !errors.Is(err, w.fail) {
		t.Fatalf("Handle on a failing writer: %v", err)
	}
	if n := held(); n != 0 {
		t.Fatalf("buffer holds %d bytes after a failed flush", n)
	}
	w.mu.Lock()
	w.fail = nil
	w.mu.Unlock()
	log.Warn("back")
	if got := msgs(t, w.snapshot()); fmt.Sprint(got) != "[back]" {
		t.Fatalf("after the writer recovered: %v", got)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLogHandlerConcurrentSoak is for -race: eight writers, mixed levels
// and shapes, and every line must arrive exactly once, whole.
func TestLogHandlerConcurrentSoak(t *testing.T) {
	const writers, each = 8, 2000
	var out lineCounter
	sink := NewLogHandler(&out, slog.LevelInfo)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			log := slog.New(sink)
			if g%2 == 1 {
				log = log.With("writer", g) // the declined path, concurrently
			}
			for i := 0; i < each; i++ {
				switch i % 50 {
				case 0:
					log.Warn("w", "g", g, "i", i)
				case 1:
					log.Info("odd \"shape\"", "err", errors.New("x"), "g", g)
				default:
					log.Info("http_request", "g", g, "i", i, "duration_ms", float64(i)/7)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if out.bad != "" {
		t.Fatalf("malformed write: %q", out.bad)
	}
	if out.lines != writers*each {
		t.Fatalf("%d lines arrived, want %d", out.lines, writers*each)
	}
}

// lineCounter checks each Write is a run of whole JSON lines and counts them.
type lineCounter struct {
	lines int
	bad   string
}

func (c *lineCounter) Write(p []byte) (int, error) {
	if len(p) == 0 || p[len(p)-1] != '\n' {
		c.bad = string(p)
		return len(p), nil
	}
	for _, line := range bytes.Split(p[:len(p)-1], []byte{'\n'}) {
		if !json.Valid(line) {
			c.bad = string(line)
		}
		c.lines++
	}
	return len(p), nil
}

func BenchmarkLogHandlerAccessLine(b *testing.B) {
	sink := NewLogHandler(io.Discard, slog.LevelInfo)
	defer sink.Close()
	r := accessRecord()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Handle(context.Background(), r)
	}
}
