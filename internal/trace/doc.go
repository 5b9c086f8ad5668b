// Package trace is the broker's request-scoped tracing layer: a
// zero-dependency, allocation-lean span model for the arrival path plus a
// lock-free flight recorder that retains the traces an operator actually
// needs when chasing a tail-latency spike.
//
// # Model
//
// Each traced request carries a Request context — a W3C trace ID honored
// from an incoming `traceparent` header or minted fresh, plus the span ID
// this process assigned to the request. The broker cuts one Trace per
// submission — an "arrival", or an "arrival_batch" for a window: a root span
// covering the pipeline call end to end and four child spans with one meaning
// at every window size — lock_wait (the stripe-interval acquisition), gather
// (Σ grid probes), scan (Σ score, walk, resolve and charge), commit (the one
// WAL append) — derived from the same clock reads the stage latency
// histograms use. Tracing adds no second round of clock reads to the hot
// path, and with tracing disabled (a nil Recorder) the broker pays a single
// pointer check.
//
// # Flight recorder
//
// Completed traces land in a Recorder: two lock-free ring buffers with
// tail-based retention. The recent ring is a reservoir of the newest traces
// regardless of interest; the kept ring guarantees retention for slow
// traces (duration at or above the configured threshold) and anomalous
// ones (errors, arrivals that saw exhausted campaigns, unavailable
// rejections) even when a flood of fast traffic would otherwise evict
// them. Recording is wait-free — one atomic sequence fetch and one pointer
// store per ring — so the recorder is safe to leave on in production.
//
// Snapshot drains both rings newest-first with optional duration/outcome
// filters; Handler serves the same view as JSON (GET /v1/debug/traces on
// muaa-serve's private debug listener).
//
// # Access logs
//
// Middleware wraps an http.Handler with the request lifecycle glue: it
// derives the Request context from `traceparent`, echoes the resulting
// header on the response, stores the context for handlers
// (FromContext), emits one structured access-log line per request with
// trace_id/status/duration, and records server-side "unavailable" arrival
// traces that never reached the broker.
package trace
