package obs

// Bounded dynamic-label collection. The registry's static rule — labels are
// fixed at registration — is deliberate: unbounded label values would grow a
// scrape without limit. A few families are nevertheless legitimately dynamic
// with a bounded set at any instant: the broker's per-campaign decision
// funnel exposes its top-K heavy hitters, a set that shifts as traffic
// shifts. NewCollectorFunc covers exactly that case. The caller guarantees
// the bound; the registry guarantees hygiene — label values are sanitized and
// escaped through the same renderLabels path as static labels, and samples
// are sorted by label set so successive scrapes of a quiescent collector stay
// byte-identical (the WriteTextFiltered determinism contract).
//
// The time-series sampler needs no special handling: Gather expands a
// collector into one MetricPoint per sample, and the sampler allocates a ring
// for any series it has not seen before, so a campaign entering the top-K
// simply starts a new ring, and drops one that has gone a full ring without a
// point, so a campaign that left the top-K stops costing memory once its
// history has aged out.

import (
	"fmt"
	"io"
	"sort"
)

// Sample is one dynamically-labelled sample produced by a collector
// callback at scrape time.
type Sample struct {
	Labels []Label
	Value  float64
}

// NewCollectorFunc registers a metric family whose sample set is produced by
// fn at every scrape — the bounded-cardinality escape hatch from the static
// Label rule. typ must be "counter" or "gauge". fn must be safe for
// concurrent use and return a bounded number of samples; the registry calls
// it with no locks held. A collector owns its whole family: no static metric
// may share the name.
func (r *Registry) NewCollectorFunc(name, help, typ string, fn func() []Sample) {
	if typ != "counter" && typ != "gauge" {
		panic(fmt.Sprintf("obs: collector %q registered with type %q (want counter or gauge)", name, typ))
	}
	r.register(name, help, typ, metric{
		name: name,
		// The identity sentinel: renderLabels can never produce "{*}" (keys
		// are sanitized to identifier characters), so a second collector on
		// this family always panics as a duplicate; register additionally
		// rejects any static metric joining a collector family.
		labels: "{*}",
		sample: func(w io.Writer, name, _ string) {
			for _, s := range collectSorted(fn) {
				fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatFloat(s.value))
			}
		},
		collect: fn,
	})
}

// renderedSample is one collector sample with its label set rendered (and
// therefore sanitized) for output.
type renderedSample struct {
	labels string
	value  float64
}

// collectSorted runs a collector callback and renders its samples in
// deterministic order (sorted by rendered label set).
func collectSorted(fn func() []Sample) []renderedSample {
	raw := fn()
	out := make([]renderedSample, 0, len(raw))
	for _, s := range raw {
		out = append(out, renderedSample{labels: renderLabels(s.Labels), value: s.Value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}
