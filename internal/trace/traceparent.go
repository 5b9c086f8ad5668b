package trace

import (
	"context"
	"encoding/hex"
)

// Request is the trace context of one in-flight request: the trace it
// belongs to, the span this process minted for it, and the caller's span
// when the trace was propagated in. A nil *Request means the request is
// untraced; every consumer treats that as "do nothing".
type Request struct {
	TraceID TraceID
	// SpanID is the span this process assigned to the request — the root of
	// any trace the broker records for it.
	SpanID SpanID
	// ParentSpanID is the caller's span from the incoming traceparent
	// header; zero when this process started the trace.
	ParentSpanID SpanID
}

// StartRequest derives a request's trace context from the incoming
// traceparent header value: a parseable header continues the caller's
// trace (its span-id becomes the parent), anything else — including the
// empty string — mints a fresh trace ID. A new span ID is minted either
// way. It returns by value so hot paths that trace a call directly (the
// broker benchmarks, batch drivers) never heap-allocate the context;
// Middleware takes the one escape into the request context itself.
func StartRequest(traceparent string) Request {
	req := Request{SpanID: NewSpanID()}
	if tid, parent, ok := ParseTraceparent(traceparent); ok {
		req.TraceID, req.ParentSpanID = tid, parent
	} else {
		req.TraceID = NewTraceID()
	}
	return req
}

// Traceparent renders the header value to propagate or echo for this
// request: version 00, this process's span as the parent-id, sampled flag
// set (the flight recorder records every completed trace).
func (r *Request) Traceparent() string {
	buf := make([]byte, 0, 55)
	buf = append(buf, "00-"...)
	buf = appendHex(buf, r.TraceID[:])
	buf = append(buf, '-')
	buf = appendHex(buf, r.SpanID[:])
	buf = append(buf, "-01"...)
	return string(buf)
}

func appendHex(dst, src []byte) []byte {
	n := len(dst)
	dst = dst[:n+2*len(src)]
	hex.Encode(dst[n:], src)
	return dst
}

// ParseTraceparent parses a W3C traceparent header value
// (version-traceid-parentid-flags, lowercase hex). It accepts any
// non-"ff" version — future versions may append extra dash-separated
// fields, which are ignored — and rejects malformed lengths, non-hex or
// uppercase digits, and the all-zero trace or span IDs the spec forbids.
// It never panics, whatever the input (fuzzed by FuzzParseTraceparent).
func ParseTraceparent(s string) (TraceID, SpanID, bool) {
	var tid TraceID
	var sid SpanID
	// Fixed layout: "vv-tttttttttttttttttttttttttttttttt-pppppppppppppppp-ff".
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return tid, sid, false
	}
	version, ok := hexByte(s[0], s[1])
	if !ok || version == 0xff {
		return tid, sid, false
	}
	if version == 0 {
		// Version 00 defines exactly four fields.
		if len(s) != 55 {
			return tid, sid, false
		}
	} else if len(s) > 55 && s[55] != '-' {
		// A future version may only extend the header with more fields.
		return tid, sid, false
	}
	if _, err := hex.Decode(tid[:], []byte(s[3:35])); err != nil || hasUpper(s[3:35]) {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.Decode(sid[:], []byte(s[36:52])); err != nil || hasUpper(s[36:52]) {
		return TraceID{}, SpanID{}, false
	}
	if _, ok := hexByte(s[53], s[54]); !ok {
		return TraceID{}, SpanID{}, false
	}
	if tid.IsZero() || sid.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return tid, sid, true
}

// hexByte decodes two lowercase hex digits.
func hexByte(hi, lo byte) (byte, bool) {
	h, ok1 := hexNibble(hi)
	l, ok2 := hexNibble(lo)
	return h<<4 | l, ok1 && ok2
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// hasUpper rejects uppercase hex, which the traceparent spec forbids but
// encoding/hex accepts.
func hasUpper(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'F' {
			return true
		}
	}
	return false
}

// ctxKey keys the Request in a context.Context.
type ctxKey struct{}

// requestCtx is a context carrying req: what context.WithValue would build,
// as a type Middleware can embed in its per-request state.
type requestCtx struct {
	context.Context
	req Request
}

func (c *requestCtx) Value(key any) any {
	if key == (ctxKey{}) {
		return &c.req
	}
	return c.Context.Value(key)
}

// FromContext returns the request's trace context, or nil when the request
// is untraced.
func FromContext(ctx context.Context) *Request {
	req, _ := ctx.Value(ctxKey{}).(*Request)
	return req
}
