// Package trace is the broker's request-scoped tracing layer: a
// zero-dependency span model for the arrival path plus a lock-free flight
// recorder that keeps the traces an operator needs when chasing a
// tail-latency spike.
//
// A Request carries a W3C trace ID, honored from an incoming `traceparent`
// header or minted, and the span ID this process assigned. The broker cuts
// one Trace per submission ("arrival", or "arrival_batch" for a window, its
// counts the window's totals): a root span and the four stage spans
// StageNames lists, timed by the clock reads the stage histograms already
// take. A Recorder keeps completed traces
// in two lock-free rings, the newest and the slow or anomalous; Snapshot and
// Handler (GET /v1/debug/traces) read them newest first. Middleware derives
// the Request from `traceparent`, echoes the header, writes one access-log
// line per request and records an "unavailable" trace for every arrival
// answered 503. DESIGN.md §11 states the model, and docs/OPERATIONS.md
// § Tracing & logs the operator's view.
package trace
