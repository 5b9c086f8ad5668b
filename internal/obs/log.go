package obs

import (
	"context"
	"io"
	"log/slog"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// What a buffered INFO line may wait for: logFlushBytes of company or
// logFlushEvery, whichever comes first. A record at WARN or above is written
// inside its own Handle call with everything buffered before it, and Close
// writes what is left: a graceful exit loses nothing, a SIGKILL at most the
// last logFlushEvery of INFO and DEBUG lines, never a WARN or an ERROR.
const (
	logFlushBytes = 32 << 10
	logFlushEvery = 100 * time.Millisecond
)

// LogHandler is the process's one log sink: an slog.Handler that writes
// slog.JSONHandler's lines, byte for byte, through a buffer that reaches the
// writer in whole lines under the policy above — a request's access-log line
// costs an append, not a write(2). Flat records of printable-ASCII strings,
// integers, plain-notation floats and bools (all this tree logs) are appended
// directly; any other is declined to an embedded slog.JSONHandler writing
// into the same buffer.
type LogHandler struct {
	b       *logBuffer   // shared with every handler WithAttrs/WithGroup derive
	json    slog.Handler // renders what the fast path declines, into b; owns the level
	derived bool         // carries With-attrs or a group: always declined
}

// logBuffer is the state behind a LogHandler and its derivations.
type logBuffer struct {
	mu    sync.Mutex
	w     io.Writer
	buf   []byte
	armed bool // a timedFlush is pending: every held line has its deadline
}

// NewLogHandler returns a LogHandler that writes records at or above level
// to w. The caller must Close it before the process exits.
func NewLogHandler(w io.Writer, level slog.Level) *LogHandler {
	b := &logBuffer{w: w}
	return &LogHandler{b: b, json: slog.NewJSONHandler(b, &slog.HandlerOptions{Level: level})}
}

func (h *LogHandler) Enabled(ctx context.Context, l slog.Level) bool { return h.json.Enabled(ctx, l) }

func (h *LogHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &LogHandler{b: h.b, json: h.json.WithAttrs(attrs), derived: true}
}

func (h *LogHandler) WithGroup(name string) slog.Handler {
	return &LogHandler{b: h.b, json: h.json.WithGroup(name), derived: true}
}

// Handle appends r as one line and applies the flush policy; an error is the writer's.
func (h *LogHandler) Handle(ctx context.Context, r slog.Record) error {
	b := h.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if h.derived || !b.appendRecord(r) {
		_ = h.json.Handle(ctx, r) // its writer is b.Write, which cannot fail
	}
	if r.Level >= slog.LevelWarn || len(b.buf) >= logFlushBytes {
		return b.flush()
	}
	if !b.armed { // no ticker: an idle server has no timer running
		b.armed = true
		time.AfterFunc(logFlushEvery, b.timedFlush)
	}
	return nil
}

// Close writes whatever is buffered. Idempotent; the handler stays usable.
func (h *LogHandler) Close() error {
	h.b.mu.Lock()
	defer h.b.mu.Unlock()
	return h.b.flush()
}

// Write takes the embedded JSONHandler's line; Handle holds mu around it.
func (b *logBuffer) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *logBuffer) timedFlush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.armed = false
	_ = b.flush() // stderr failed: there is nowhere left to report it
}

// flush hands the buffered lines to w in one Write, and empties the buffer even
// if that failed: a broken stderr must not make the process hoard its log.
func (b *logBuffer) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.w.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

// appendRecord appends r to the buffer as slog.JSONHandler would render it,
// or appends nothing and reports false for a record it does not cover.
func (b *logBuffer) appendRecord(r slog.Record) bool {
	if !plain(r.Message) {
		return false
	}
	buf := append(b.buf, '{')
	if !r.Time.IsZero() {
		if y := r.Time.Year(); y < 0 || y > 9999 {
			return false // slog writes an !ERROR value here
		}
		buf = append(buf, `"time":"`...)
		buf = r.Time.AppendFormat(buf, time.RFC3339Nano)
		buf = append(buf, `",`...)
	}
	buf = append(buf, `"level":"`...)
	buf = append(buf, r.Level.String()...) // "INFO", "WARN+2": never needs an escape
	buf = append(buf, `","msg":"`...)
	buf = append(buf, r.Message...)
	buf = append(buf, '"')
	ok := true
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "" || !plain(a.Key) { // slog elides an empty Attr
			ok = false
			return false
		}
		buf = append(buf, `,"`...)
		buf = append(buf, a.Key...)
		buf = append(buf, `":`...)
		switch v := a.Value; v.Kind() {
		case slog.KindString:
			if ok = plain(v.String()); ok {
				buf = append(buf, '"')
				buf = append(buf, v.String()...)
				buf = append(buf, '"')
			}
		case slog.KindInt64:
			buf = strconv.AppendInt(buf, v.Int64(), 10)
		case slog.KindUint64:
			buf = strconv.AppendUint(buf, v.Uint64(), 10)
		case slog.KindFloat64:
			// encoding/json writes exponents outside [1e-6, 1e21) and refuses NaN, ±Inf.
			f := v.Float64()
			if abs := math.Abs(f); f == 0 || abs >= 1e-6 && abs < 1e21 {
				buf = strconv.AppendFloat(buf, f, 'f', -1, 64)
			} else {
				ok = false
			}
		case slog.KindBool:
			buf = strconv.AppendBool(buf, v.Bool())
		default:
			ok = false
		}
		return ok
	})
	if ok {
		b.buf = append(buf, '}', '\n')
	}
	return ok
}

// plain reports whether s needs no escape inside a JSON string: printable
// ASCII without '"' and '\'.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}
