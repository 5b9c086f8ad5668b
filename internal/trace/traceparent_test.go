package trace

import (
	"context"
	"strings"
	"testing"
)

func TestParseTraceparentValid(t *testing.T) {
	tid, sid, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("valid traceparent rejected")
	}
	if got, want := tid.String(), "4bf92f3577b34da6a3ce929d0e0e4736"; got != want {
		t.Fatalf("trace id = %q, want %q", got, want)
	}
	if got, want := sid.String(), "00f067aa0ba902b7"; got != want {
		t.Fatalf("span id = %q, want %q", got, want)
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	// A future version may append extra dash-separated fields.
	for _, s := range []string{
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
	} {
		if _, _, ok := ParseTraceparent(s); !ok {
			t.Errorf("future-version traceparent rejected: %q", s)
		}
	}
}

func TestParseTraceparentInvalid(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"short", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0"},
		{"version 00 with trailing field", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x"},
		{"version ff", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"bad version hex", "0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"},
		{"zero span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01"},
		{"uppercase trace id", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01"},
		{"uppercase span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01"},
		{"bad trace hex", "00-4bf92f3577b34da6a3ce929d0e0e473x-00f067aa0ba902b7-01"},
		{"bad span hex", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902bx-01"},
		{"bad flags hex", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0x"},
		{"missing dash 1", "00x4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"missing dash 2", "00-4bf92f3577b34da6a3ce929d0e0e4736x00f067aa0ba902b7-01"},
		{"missing dash 3", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7x01"},
		{"future version bad separator", "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x"},
	}
	for _, c := range cases {
		if _, _, ok := ParseTraceparent(c.in); ok {
			t.Errorf("%s: accepted %q", c.name, c.in)
		}
	}
}

func TestStartRequestRoundTrip(t *testing.T) {
	// No incoming header: mint fresh IDs.
	fresh := StartRequest("")
	if fresh.TraceID.IsZero() || fresh.SpanID.IsZero() {
		t.Fatal("minted request has zero IDs")
	}
	if !fresh.ParentSpanID.IsZero() {
		t.Fatal("minted request should have no parent span")
	}

	// The rendered header must parse back to the same trace ID with the
	// request's own span as parent.
	hdr := fresh.Traceparent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("malformed rendered traceparent %q", hdr)
	}
	next := StartRequest(hdr)
	if next.TraceID != fresh.TraceID {
		t.Fatalf("trace id not propagated: %s vs %s", next.TraceID, fresh.TraceID)
	}
	if next.ParentSpanID != fresh.SpanID {
		t.Fatalf("parent span = %s, want caller span %s", next.ParentSpanID, fresh.SpanID)
	}
	if next.SpanID == fresh.SpanID {
		t.Fatal("continuation did not mint a new span id")
	}
}

func TestStartRequestMalformedHeaderMints(t *testing.T) {
	r := StartRequest("garbage")
	if r.TraceID.IsZero() || r.SpanID.IsZero() || !r.ParentSpanID.IsZero() {
		t.Fatalf("malformed header should mint fresh ids, got %+v", r)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context should carry no trace request")
	}
	type parentKey struct{}
	ctx := &requestCtx{context.WithValue(context.Background(), parentKey{}, 7), StartRequest("")}
	if got := FromContext(ctx); got != &ctx.req {
		t.Fatalf("FromContext = %p, want %p", got, &ctx.req)
	}
	if got := ctx.Value(parentKey{}); got != 7 {
		t.Fatalf("the parent's value through requestCtx = %v, want 7", got)
	}
}

func TestNewIDsUnique(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("minted zero trace id")
		}
		if seen[id] {
			t.Fatal("duplicate trace id in 1000 mints")
		}
		seen[id] = true
	}
}

func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-tail")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Add("")
	f.Add("00--")
	f.Add(strings.Repeat("-", 55))
	f.Fuzz(func(t *testing.T, s string) {
		tid, sid, ok := ParseTraceparent(s)
		if !ok {
			if !tid.IsZero() || !sid.IsZero() {
				t.Fatalf("rejected input returned non-zero ids: %q", s)
			}
			return
		}
		if tid.IsZero() || sid.IsZero() {
			t.Fatalf("accepted input with zero ids: %q", s)
		}
		// Re-render through a Request and re-parse: the trace ID must
		// survive the round trip.
		r := Request{TraceID: tid, SpanID: sid}
		tid2, sid2, ok2 := ParseTraceparent(r.Traceparent())
		if !ok2 || tid2 != tid || sid2 != sid {
			t.Fatalf("round trip failed for %q: %v %v %v", s, ok2, tid2, sid2)
		}
	})
}
