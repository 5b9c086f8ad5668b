package trace

import (
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"time"

	"muaa/internal/obs"
)

// Handler serves the flight recorder as JSON: newest-first traces under a
// top-level {"traces": [...]} key. Query parameters:
//
//	min_ms=N    only traces with duration >= N milliseconds (float ok)
//	outcome=S   only traces with this outcome (offered/no_offers/error/unavailable)
//	limit=N     at most N traces (default 100)
//
// Mounted at GET /v1/debug/traces on muaa-serve's private debug listener.
func (r *Recorder) Handler() http.Handler {
	return obs.MethodHandler(map[string]http.HandlerFunc{http.MethodGet: func(w http.ResponseWriter, req *http.Request) {
		f := Filter{Limit: 100}
		q := req.URL.Query()
		if s := q.Get("min_ms"); s != "" {
			ms, err := strconv.ParseFloat(s, 64)
			// !(ms >= 0) also rejects NaN, which ParseFloat accepts and a
			// plain `ms < 0` lets through.
			if err != nil || !(ms >= 0) || math.IsInf(ms, 1) {
				obs.WriteError(w, http.StatusBadRequest, "bad_request", "min_ms must be a non-negative number")
				return
			}
			f.MinDuration = time.Duration(ms * float64(time.Millisecond))
		}
		if s := q.Get("outcome"); s != "" {
			switch s {
			case OutcomeOffered, OutcomeNoOffers, OutcomeError, OutcomeUnavailable:
				f.Outcome = s
			default:
				obs.WriteError(w, http.StatusBadRequest, "bad_request",
					"outcome must be one of offered, no_offers, error, unavailable")
				return
			}
		}
		if s := q.Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				obs.WriteError(w, http.StatusBadRequest, "bad_request", "limit must be a non-negative integer")
				return
			}
			f.Limit = n
		}
		traces := r.Snapshot(f)
		if traces == nil {
			traces = []*Trace{}
		}
		obs.WriteJSON(w, http.StatusOK, map[string][]*Trace{"traces": traces})
	}})
}

// statusWriter captures the response status and size for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// requestState is everything Middleware keeps per request, in one
// allocation: the wrapped ResponseWriter, the context.Context carrying the
// trace context, and the echoed header's value slice.
type requestState struct {
	sw          statusWriter
	ctx         requestCtx
	traceparent [1]string
}

// Middleware wraps h with the request-tracing lifecycle: it derives the
// trace context from any incoming traceparent header (minting IDs
// otherwise), echoes the resulting traceparent on the response, exposes the
// context to handlers via FromContext, emits one structured access-log line
// per request, and — when rec is non-nil — records an "unavailable" trace
// for every arrival request answered 503: turned away by the recovery gate,
// or refused by a read-only broker (which records no trace of its own).
// logger and rec may each be nil.
func Middleware(h http.Handler, logger *slog.Logger, rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		st := &requestState{
			sw: statusWriter{ResponseWriter: w},
			// The canonical spelling: Get allocates to fold any other.
			ctx: requestCtx{req.Context(), StartRequest(req.Header.Get("Traceparent"))},
		}
		tr, sw := &st.ctx.req, &st.sw
		st.traceparent[0] = tr.Traceparent()
		w.Header()["Traceparent"] = st.traceparent[:]
		h.ServeHTTP(sw, req.WithContext(&st.ctx))
		dur := time.Since(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if rec != nil && sw.status == http.StatusServiceUnavailable && isArrivalPath(req.URL.Path) {
			rec.Record(&Trace{
				TraceID:      tr.TraceID,
				SpanID:       tr.SpanID,
				ParentSpanID: tr.ParentSpanID,
				Start:        start,
				Duration:     dur,
				Outcome:      OutcomeUnavailable,
				Anomalous:    true,
			})
		}
		if logger != nil && logger.Enabled(req.Context(), slog.LevelInfo) {
			// A Record built here, not by logger.LogAttrs: that walks the
			// stack for a source PC no handler of ours prints.
			r := slog.NewRecord(start.Add(dur), slog.LevelInfo, "http_request", 0)
			r.AddAttrs(
				slog.String("trace_id", st.traceparent[0][3:35]), // "00-<trace id>-…"
				slog.String("method", req.Method),
				slog.String("path", req.URL.Path),
				slog.Int("status", sw.status),
				slog.Float64("duration_ms", float64(dur)/float64(time.Millisecond)),
				slog.Int64("bytes", sw.bytes),
				slog.String("remote", req.RemoteAddr),
			)
			_ = logger.Handler().Handle(req.Context(), r) // as LogAttrs does: a failed log write is nobody's error
		}
	})
}

// isArrivalPath matches the two arrival-ingest routes.
func isArrivalPath(p string) bool {
	return p == "/v1/arrivals" || p == "/v1/arrivals:batch"
}
