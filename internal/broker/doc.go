// Package broker is the running system around the algorithms: the
// location-based advertising broker the paper describes in its introduction
// ("vendors create campaigns on the broker system with the specified
// information of ads and budgets ... the broker system sends LBA ads to
// potential customers based on their current locations, profiles and
// preferences").
//
// Unlike the batch solvers in package core, a Broker is long-lived and
// dynamic: vendors register and top up campaigns at any time, customers
// arrive continuously, and each arrival is answered immediately with the
// O-AFA admission rule over the live campaign state. γ_min is maintained as
// a running estimate from the efficiencies the broker actually observes
// (the paper's "estimated through the historical records ... after a period
// of tuning"). There is one arrival pipeline and it takes a window: Arrive is
// its window of one, and clients that tolerate a bounded answer delay submit
// longer windows through ArriveBatch, which pays locking, clock anchoring and
// WAL framing once per window while every decision stays bit-identical
// however the stream is split — pure transport batching, not the look-ahead
// of core.OnlineBatch (DESIGN.md §14).
//
// # Concurrency model
//
// The broker serves arrivals concurrently by sharding campaign state into
// horizontal spatial stripes (geo.Stripes over the unit square): each shard
// owns the campaigns whose centers fall in its stripe, with its own
// 64×64-cell geo.Grid and its own lock. An arrival at
// p can only be covered by campaigns whose centers lie within maxRadius of
// p, so it locks exactly the contiguous stripe range overlapping
// [p.Y−maxRadius, p.Y+maxRadius] — always in ascending index order, which
// makes the locking deadlock-free — and arrivals in disjoint regions run in
// parallel. The running γ_min/γ_max efficiency bounds and the global
// counters are lock-free atomics, and Stats/Campaigns/CampaignState are
// pure snapshot reads that never block the serving path. Under
// single-threaded replay the admission sequence is bit-identical to the
// original single-mutex broker (pinned by the golden files in testdata/).
// DESIGN.md §8 gives the full shard map, lock ordering, and visibility
// argument.
//
// # Observability
//
// Setting Config.Metrics to an obs.Registry instruments the broker at
// construction time: end-to-end and per-stage arrival latency histograms,
// per-stripe lock and contention counters, scan outcome counters, and live
// γ/threshold gauges, all registered under the muaa_broker_ prefix and
// documented metric-by-metric in docs/OPERATIONS.md. Instrumentation is
// observation-only — admission decisions and replay transcripts are
// identical with or without it (DESIGN.md §9) — and an uninstrumented
// broker pays a single nil-check per arrival.
//
// The HTTP front end lives in http.go; cmd/muaa-serve wires it to a port
// together with GET /metrics and /healthz.
package broker
