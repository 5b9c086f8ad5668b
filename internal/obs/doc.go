// Package obs is the broker's zero-dependency observability layer: a
// metrics registry of atomic counters, gauges, and fixed-bucket latency
// histograms, exposed in the Prometheus text exposition format.
//
// The package exists so the serving path can be measured without being
// slowed down, and it applies the same discipline as the broker's stripe
// design (DESIGN.md §8): hot-path writes touch only lock-free atomics, and
// histograms additionally shard their bucket counters across cache lines so
// concurrent observers do not serialize on one counter word — the shards
// are merged only at scrape time. Nothing on the write path allocates,
// locks, or formats text.
//
// # Instruments
//
//   - Counter: a monotone uint64 (Inc/Add). CounterFunc adapts an existing
//     monotone source (e.g. an atomic the program already maintains).
//   - Gauge: a settable float64. GaugeFunc samples a callback at scrape
//     time, which is the right shape for derived values such as the
//     broker's adaptive threshold.
//   - Histogram: observation counts over fixed upper-bound buckets plus a
//     running sum. Buckets are fixed at construction — see DESIGN.md §9 for
//     why — and ExpBuckets builds the usual latency layout.
//     Snapshot() merges the shards into a consistent view with quantile
//     estimation for offline reporting.
//
// # Exposition
//
// Registry.WriteTextFiltered emits the v0.0.4 Prometheus text format: one
// # HELP / # TYPE header per metric family, samples sorted by name then label
// set, histograms as cumulative name_bucket{le="..."} series with name_sum
// and name_count. Registry.Handler serves it over HTTP for GET /metrics. Output
// ordering is deterministic so tests can diff scrapes.
//
// Registering two metrics with the same name and label set panics: metric
// identity is a programming-time property, and a silent duplicate would
// make exposition ambiguous.
package obs
