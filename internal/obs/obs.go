package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric at registration time.
// Labels are static for the lifetime of the metric: dynamic label values
// (per-campaign IDs, per-customer anything) are unbounded-cardinality and
// deliberately unsupported — register one metric per known label value
// instead (e.g. one counter per stripe).
type Label struct {
	Key, Value string
}

// L is shorthand for Label{Key: k, Value: v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// metric is one registered instrument: a fixed identity plus a sampler
// called at scrape time.
type metric struct {
	name   string
	labels string // rendered {k="v",...} or ""
	sample func(w io.Writer, name, labels string)
	// read returns the instrument's current scalar value (counters and
	// gauges); nil for histograms, whose hist field carries the snapshot
	// source instead. Gather is the only consumer.
	read func() float64
	hist *Histogram // non-nil iff this metric is a histogram
	// collect, when non-nil, marks a dynamic-label collector (see
	// NewCollectorFunc): the metric expands to one sample per element of the
	// returned set at scrape time, and read/hist are nil.
	collect func() []Sample
}

// family groups every metric sharing one name: the exposition format allows
// a single # HELP / # TYPE header per name.
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge", "histogram"
	metrics []metric
}

// Registry holds a set of metrics and renders them on demand. Registration
// is synchronized; the registered instruments themselves are lock-free.
// The zero value is not usable — call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a metric to its family, creating the family on first use.
// It panics on a name reused with a different type or help string, and on a
// duplicate (name, labels) identity.
func (r *Registry) register(name, help, typ string, m metric) {
	if name == "" {
		panic("obs: metric with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	if f.help != help {
		panic(fmt.Sprintf("obs: metric %q registered with two help strings", name))
	}
	for _, existing := range f.metrics {
		if existing.labels == m.labels {
			panic(fmt.Sprintf("obs: duplicate metric %s%s", name, m.labels))
		}
		// A collector owns its whole family (its sample set is dynamic, so
		// any static sibling could collide with it at scrape time).
		if existing.collect != nil || m.collect != nil {
			panic(fmt.Sprintf("obs: metric %q mixes a collector with other registrations", name))
		}
	}
	f.metrics = append(f.metrics, m)
}

// Counter is a monotonically increasing event count. All methods are safe
// for concurrent use and lock-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", metric{
		name:   name,
		labels: renderLabels(labels),
		sample: func(w io.Writer, name, lbl string) {
			fmt.Fprintf(w, "%s%s %d\n", name, lbl, c.Value())
		},
		read: func() float64 { return float64(c.Value()) },
	})
	return c
}

// NewCounterFunc registers a counter whose value is sampled from fn at
// scrape time. fn must be monotone non-decreasing and safe for concurrent
// use; the registry calls it with no locks held.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "counter", metric{
		name:   name,
		labels: renderLabels(labels),
		sample: func(w io.Writer, name, lbl string) {
			fmt.Fprintf(w, "%s%s %s\n", name, lbl, formatFloat(fn()))
		},
		read: fn,
	})
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// NewGauge registers and returns a gauge, initialized to zero.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", metric{
		name:   name,
		labels: renderLabels(labels),
		sample: func(w io.Writer, name, lbl string) {
			fmt.Fprintf(w, "%s%s %s\n", name, lbl, formatFloat(g.Value()))
		},
		read: g.Value,
	})
	return g
}

// NewGaugeFunc registers a gauge sampled from fn at scrape time. fn must be
// safe for concurrent use; the registry calls it with no locks held.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", metric{
		name:   name,
		labels: renderLabels(labels),
		sample: func(w io.Writer, name, lbl string) {
			fmt.Fprintf(w, "%s%s %s\n", name, lbl, formatFloat(fn()))
		},
		read: fn,
	})
}

// WriteTextFiltered renders the registered families whose name starts with
// prefix — every family for an empty prefix — in the Prometheus text
// exposition format (version 0.0.4). Families are sorted by name and
// samples by label set, so successive scrapes of a quiescent registry are
// byte-identical. Filtering happens at the family level before any sampler
// runs, so a scrape that excludes a histogram never pays its shard merge.
func (r *Registry) WriteTextFiltered(w io.Writer, prefix string) {
	for _, f := range r.snapshotFamilies(prefix) {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, m := range f.metrics {
			m.sample(w, m.name, m.labels)
		}
	}
}

// snapshotFamilies copies the matching families out from under the
// registration lock, sorted by name with samples sorted by label set, so
// callers iterate (and call samplers) with no locks held.
func (r *Registry) snapshotFamilies(prefix string) []family {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fams := make([]family, len(names))
	for i, name := range names {
		f := r.families[name]
		fams[i] = family{name: f.name, help: f.help, typ: f.typ,
			metrics: append([]metric(nil), f.metrics...)}
	}
	r.mu.Unlock()
	for i := range fams {
		ms := fams[i].metrics
		sort.Slice(ms, func(a, b int) bool { return ms[a].labels < ms[b].labels })
	}
	return fams
}

// Kind identifies an instrument's type in a Gather snapshot.
type Kind string

// The three instrument kinds Gather reports.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// MetricPoint is one instrument's value at Gather time. Counters and gauges
// fill Value; histograms fill Hist instead.
type MetricPoint struct {
	Name   string
	Labels string // rendered {k="v",...} or ""
	Kind   Kind
	Value  float64
	Hist   *HistogramSnapshot
}

// Gather returns a point-in-time snapshot of every registered instrument in
// WriteTextFiltered order (families by name, samples by label set) — the
// programmatic twin of the text scrape, consumed by the time-series
// sampler. Value funcs run with no registry locks held.
func (r *Registry) Gather() []MetricPoint {
	var out []MetricPoint
	for _, f := range r.snapshotFamilies("") {
		for _, m := range f.metrics {
			if m.collect != nil {
				for _, s := range collectSorted(m.collect) {
					out = append(out, MetricPoint{
						Name: m.name, Labels: s.labels, Kind: Kind(f.typ), Value: s.value,
					})
				}
				continue
			}
			p := MetricPoint{Name: m.name, Labels: m.labels, Kind: Kind(f.typ)}
			if m.hist != nil {
				snap := m.hist.Snapshot()
				p.Hist = &snap
			} else if m.read != nil {
				p.Value = m.read()
			}
			out = append(out, p)
		}
	}
	return out
}

// Handler returns the GET /metrics endpoint: a text-exposition scrape of
// the registry. An optional ?name=PREFIX query restricts the scrape to the
// metric families whose name starts with PREFIX, letting a targeted scrape
// (CI's funnel check, an operator's curl) skip the histogram merge cost of
// families it does not read; without it the output is the full,
// byte-identical scrape.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		r.WriteTextFiltered(w, req.URL.Query().Get("name"))
	})
}

// WriteJSON is the single funnel for every JSON reply with a status line —
// the serving API's, muaa-serve's own endpoints' and the debug listener's
// errors alike: the explicit Content-Type plus nosniff is a contract the
// monitoring docs advertise to scrapers. It lives here because obs is the one
// package broker, trace and slo all import. The value is encoded before the
// status is written, so one encoding/json refuses (a NaN or ±Inf float) is a
// 500 `internal` envelope, never a success status over an empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n')) // a failed write is a client gone; nothing to report to
}

// WriteError renders the uniform {"error":{"code","message"}} envelope every
// HTTP handler in the repo answers a refused request with.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	type body struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	WriteJSON(w, status, struct {
		Error body `json:"error"`
	}{body{code, message}})
}

// MethodHandler is the one method dispatcher of every HTTP surface in the
// repo: a request goes to the handler listed for its method, GET implies HEAD
// (net/http drops a HEAD reply's body), and any other method is refused with
// 405, one Allow header and the error envelope. Dispatching here, not in
// ServeMux patterns, is what keeps a 405 in the uniform envelope.
func MethodHandler(methods map[string]http.HandlerFunc) http.Handler {
	table := make(map[string]http.HandlerFunc, len(methods)+1)
	for m, h := range methods {
		table[m] = h
	}
	if get, ok := table[http.MethodGet]; ok {
		table[http.MethodHead] = get
	}
	names := make([]string, 0, len(table))
	for m := range table {
		names = append(names, m)
	}
	sort.Strings(names)
	allow := strings.Join(names, ", ")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, ok := table[r.Method]
		if !ok {
			w.Header().Set("Allow", allow)
			WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Sprintf("method %s not allowed; allowed: %s", r.Method, allow))
			return
		}
		h(w, r)
	})
}

// renderLabels renders a deterministic {k="v",...} string, sorted by key.
// An empty label set renders as "". Keys are sanitized to the exposition
// format's identifier grammar and values escaped, so no label — static or
// collector-supplied — can corrupt the text format (see escapeLabel).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(sanitizeLabelKey(l.Key))
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// labelsWithLe re-renders a rendered label string with an le="..." pair
// appended — the histogram bucket form.
func labelsWithLe(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// formatFloat renders a float the way the exposition format expects:
// shortest exact decimal, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

// escapeLabel renders a label value safely inside double quotes: the three
// characters the exposition format requires escaped (backslash, quote,
// newline) are escaped, and invalid UTF-8 is replaced with U+FFFD first —
// a hostile id (an embedded quote, a raw newline, a truncated rune) can
// therefore never break out of its value position or emit bytes a strict
// UTF-8 scrape parser rejects. Pinned by TestLabelHygiene.
func escapeLabel(s string) string {
	s = strings.ToValidUTF8(s, "�")
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(s)
}

// sanitizeLabelKey forces a label key into the exposition identifier grammar
// [a-zA-Z_][a-zA-Z0-9_]*: every other byte becomes '_' (an empty key becomes
// a single '_'). Keys normally come from code and pass through unchanged;
// the rewrite is the backstop for keys assembled from external input.
func sanitizeLabelKey(k string) string {
	ok := k != ""
	for i := 0; ok && i < len(k); i++ {
		c := k[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			ok = i > 0
		default:
			ok = false
		}
	}
	if ok {
		return k
	}
	if k == "" {
		return "_"
	}
	b := []byte(k)
	for i, c := range b {
		valid := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' ||
			(i > 0 && c >= '0' && c <= '9')
		if !valid {
			b[i] = '_'
		}
	}
	return string(b)
}
