package main

// The dashboard half of muaa-top: one poll of the two ports and one rendered
// frame. Nothing here derives a number. Every value on screen is the newest
// point of a retention-ring series the server sampled and every sparkline is
// that ring's points (GET /v1/debug/timeseries), or it is a field of the
// /v1/stats document or a row of the /v1/debug/slo table — so the LATENCY row
// and the arrival_p99 SLO rule, both reading muaa_broker_arrival_seconds:p99,
// cannot disagree. main.go owns the terminal lifecycle.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"muaa/internal/broker"
	"muaa/internal/obs"
	"muaa/internal/slo"
)

// row is one sparkline row: the ring series behind it and how its newest
// point is printed.
type row struct {
	label, series, format, unit string
	scale                       float64
}

type panel struct {
	title string
	rows  []row
}

func stageRow(stage string) row {
	return row{stage, `muaa_broker_arrival_stage_seconds{stage="` + stage + `"}:p99`, "%.3f", "ms", 1e3}
}

// panels is the screen's ring-backed part, top to bottom; ringQuery asks the
// server for exactly these series, so a row cannot be rendered without being
// requested.
var panels = []panel{
	{"THROUGHPUT", []row{
		{"arrivals/s", "muaa_broker_arrivals_total:rate", "%.1f", "", 1},
		{"offers/s", "muaa_broker_offers_pushed_total:rate", "%.1f", "", 1},
		{"wal appends/s", "muaa_wal_appends_total:rate", "%.1f", "", 1},
	}},
	{"LATENCY  (p99 of the last sample window)", []row{
		{"arrival p99", "muaa_broker_arrival_seconds:p99", "%.3f", "ms", 1e3},
		{"wal fsync p99", "muaa_wal_flush_seconds:p99", "%.3f", "ms", 1e3},
	}},
	{"STAGES  (arrival p99 by pipeline stage)", []row{
		stageRow("lock_wait"), stageRow("gather"), stageRow("scan"), stageRow("commit"),
	}},
	{"ALGORITHM", []row{
		{"ratio", "muaa_broker_empirical_ratio", "%.3f", "", 1},
		{"boost", "muaa_pacing_boost", "%.3f", "", 1},
	}},
	{"RUNTIME", []row{
		{"goroutines", "go_goroutines", "%.0f", "", 1},
		{"heap", "go_heap_alloc_bytes", "%.1f", "MiB", 1.0 / (1 << 20)},
	}},
}

const (
	uptimeSeries     = "muaa_process_uptime_seconds"
	ringCountSeries  = "muaa_obs_series"
	escrowOpenSeries = "muaa_billing_escrow_open"
	// funnelPrefix selects the broker's top-N per-campaign funnel counters,
	// each a ":rate" series (internal/broker/funnel.go).
	funnelPrefix = "muaa_funnel_campaign_total{"

	// historyRange is how far back a frame asks the rings for: the 24
	// sparkline cells at the server's default 5 s cadence.
	historyRange = 2 * time.Minute
	sparkWidth   = 24
)

// ringQuery is the one /v1/debug/timeseries query a frame makes.
func ringQuery() string {
	names := []string{uptimeSeries, ringCountSeries, escrowOpenSeries, funnelPrefix}
	for _, p := range panels {
		for _, r := range p.rows {
			names = append(names, r.series)
		}
	}
	return url.Values{"series": {strings.Join(names, ",")}, "range": {historyRange.String()}}.Encode()
}

// frame is one poll: the three documents the server answered with. A nil
// document was not available; notes says why, one line per source.
type frame struct {
	when  time.Time
	rings *obs.TimeSeriesSnapshot
	stats *broker.Stats
	slo   *slo.Snapshot
	notes []string
}

// values returns the named ring's sampled values, oldest first; nil when the
// server retains no such series (or no rings were fetched).
func (f *frame) values(name string) []float64 {
	if f.rings == nil {
		return nil
	}
	s := f.rings.Series // sorted by name (obs.TimeSeriesSnapshot)
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i == len(s) || s[i].Name != name {
		return nil
	}
	vals := make([]float64, len(s[i].Points))
	for j, p := range s[i].Points {
		vals[j] = p.Value
	}
	return vals
}

// newest is the last sampled value; NaN when there is none.
func newest(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	return vals[len(vals)-1]
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vals (oldest first) into at most width cells, scaling
// to the window's own min..max; NaN renders as a gap.
func sparkline(vals []float64, width int) string {
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	var sb strings.Builder
	for _, v := range vals {
		switch {
		case math.IsNaN(v):
			sb.WriteByte(' ')
		case hi <= lo:
			sb.WriteRune(sparkRunes[0])
		default:
			idx := int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
			sb.WriteRune(sparkRunes[idx])
		}
	}
	return sb.String()
}

// funnelRow is one campaign's decision-funnel attribution over the last
// sample window, in candidates per second.
type funnelRow struct {
	campaign string
	gathered float64
	offered  float64
	// topGate is the non-offered disposition that disposed of the most
	// gathered candidates — the dominant reason this campaign is not serving.
	topGate  string
	topGateV float64
}

// funnelRows groups the funnel ring series by campaign, reading each one's
// newest point, sorted by gathered descending (campaign id ascending as the
// tiebreak, matching the broker's own top-N order). A series whose newest
// point is null (its first sample) counts as 0. Empty when the funnel is off.
func funnelRows(series []obs.Series) []funnelRow {
	// A campaign that left the broker's top-N keeps its ring until the sampler
	// evicts it: only the series the newest sample wrote are this window's.
	var latest float64
	for _, sr := range series {
		if strings.HasPrefix(sr.Name, funnelPrefix) && len(sr.Points) > 0 {
			latest = max(latest, sr.Points[len(sr.Points)-1].Unix)
		}
	}
	var rows []funnelRow
	index := map[string]int{} // campaign → position in rows
	for _, sr := range series {
		labels, ok := strings.CutPrefix(sr.Name, funnelPrefix)
		if !ok || len(sr.Points) == 0 || sr.Points[len(sr.Points)-1].Unix < latest {
			continue
		}
		var campaign, disp string
		for _, part := range strings.Split(strings.TrimSuffix(labels, "}:rate"), ",") {
			// Campaign ids are numeric and dispositions are fixed idents, so
			// plain quote-trimming is enough here (no escapes to unwind).
			switch k, v, _ := strings.Cut(part, "="); k {
			case "campaign":
				campaign = strings.Trim(v, `"`)
			case "disposition":
				disp = strings.Trim(v, `"`)
			}
		}
		if campaign == "" || disp == "" {
			continue
		}
		i, ok := index[campaign]
		if !ok {
			i = len(rows)
			index[campaign] = i
			rows = append(rows, funnelRow{campaign: campaign})
		}
		r := &rows[i]
		v := sr.Points[len(sr.Points)-1].Value
		if math.IsNaN(v) {
			v = 0
		}
		switch disp {
		case "gathered":
			r.gathered = v
		case "offered":
			r.offered = v
		default:
			if v > r.topGateV || (v == r.topGateV && v > 0 && disp < r.topGate) {
				r.topGate, r.topGateV = disp, v
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].gathered != rows[j].gathered {
			return rows[i].gathered > rows[j].gathered
		}
		// Numeric-aware id order so "10" sorts after "9".
		if len(rows[i].campaign) != len(rows[j].campaign) {
			return len(rows[i].campaign) < len(rows[j].campaign)
		}
		return rows[i].campaign < rows[j].campaign
	})
	return rows
}

// client polls the two ports.
type client struct {
	base      string // serving port, e.g. http://127.0.0.1:8080
	debugBase string // debug port, e.g. http://127.0.0.1:6060
	hc        *http.Client
}

// getJSON decodes a 200 reply into v. Any other status is an error that
// carries the server's own {"error":{code,message}} envelope when it sent one
// (sampler_disabled, slo_disabled, unavailable during recovery).
func (c *client) getJSON(endpoint string, v any) error {
	resp, err := c.hc.Get(endpoint)
	if err != nil {
		// The cause names the address; the URL around it is a screenful of
		// our own query string.
		var ue *url.Error
		if errors.As(err, &ue) {
			err = ue.Err
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env struct {
			Error struct{ Code, Message string }
		}
		if json.NewDecoder(resp.Body).Decode(&env) == nil && env.Error.Code != "" {
			return fmt.Errorf("%s: %s", env.Error.Code, env.Error.Message)
		}
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fetch is getJSON into a fresh T, a failure becoming one of f's notes.
func fetch[T any](c *client, f *frame, what, endpoint string) *T {
	v := new(T)
	if err := c.getJSON(endpoint, v); err != nil {
		f.notes = append(f.notes, what+": "+err.Error())
		return nil
	}
	return v
}

// poll takes one frame: /v1/stats from the serving port, the rings and the
// SLO table from the debug port. The watchdog evaluates the rings, so where
// they are unavailable — port down, sampler off, recovery in progress — so is
// the SLO table, and the one note about the rings covers both.
func (c *client) poll() *frame {
	f := &frame{when: time.Now()}
	f.stats = fetch[broker.Stats](c, f, "stats", c.base+"/v1/stats")
	f.rings = fetch[obs.TimeSeriesSnapshot](c, f, "timeseries", c.debugBase+"/v1/debug/timeseries?"+ringQuery())
	if f.rings != nil {
		f.slo = fetch[slo.Snapshot](c, f, "slo", c.debugBase+"/v1/debug/slo")
	}
	return f
}

// ANSI fragments, blanked when color is off.
type palette struct{ reset, bold, dim, red, green, yellow, cyan string }

func newPalette(color bool) palette {
	if !color {
		return palette{}
	}
	return palette{
		reset: "\x1b[0m", bold: "\x1b[1m", dim: "\x1b[2m",
		red: "\x1b[31m", green: "\x1b[32m", yellow: "\x1b[33m", cyan: "\x1b[36m",
	}
}

func fmtVal(v float64, format string) string {
	if math.IsNaN(v) {
		return "—"
	}
	return fmt.Sprintf(format, v)
}

func fmtDuration(sec float64) string {
	if math.IsNaN(sec) {
		return "—"
	}
	d := time.Duration(sec * float64(time.Second))
	return d.Truncate(time.Second).String()
}

// render writes one dashboard frame.
func (f *frame) render(w io.Writer, base string, color bool) {
	p := newPalette(color)
	fmt.Fprintf(w, "%smuaa-top%s  %s  %s\n", p.bold, p.reset, base, f.when.Format("15:04:05"))

	if f.rings != nil {
		fmt.Fprintf(w, "uptime %s   metric series %s   sampled every %s\n",
			fmtDuration(newest(f.values(uptimeSeries))),
			fmtVal(newest(f.values(ringCountSeries)), "%.0f"),
			time.Duration(f.rings.IntervalSeconds*float64(time.Second)))
		for _, pn := range panels {
			fmt.Fprintf(w, "\n%s%s%s\n", p.bold, pn.title, p.reset)
			for _, r := range pn.rows {
				vals := f.values(r.series)
				fmt.Fprintf(w, "  %-14s %10s %-4s %s%s%s\n", r.label,
					fmtVal(newest(vals)*r.scale, r.format), r.unit, p.cyan, sparkline(vals, sparkWidth), p.reset)
			}
		}
		f.renderFunnel(w, p)
	}

	if st := f.stats; st != nil {
		fmt.Fprintf(w, "\n%sBROKER%s  (since boot)\n", p.bold, p.reset)
		fmt.Fprintf(w, "  campaigns %d   arrivals %d   offers %d\n",
			st.Campaigns, st.Arrivals, st.OffersPushed)
		fmt.Fprintf(w, "  γ∈[%.3g, %.3g]  g=%.3g  utility %.2f\n",
			st.GammaMin, st.GammaMax, st.G, st.UtilityServed)
		fmt.Fprintf(w, "\n%sBILLING%s\n", p.bold, p.reset)
		fmt.Fprintf(w, "  spent %.2f   escrow held %.2f (open %s)\n",
			st.BudgetSpent, st.EscrowHeld, fmtVal(newest(f.values(escrowOpenSeries)), "%.0f"))
		fmt.Fprintf(w, "  conversions %d   conversion revenue %.2f\n",
			st.Conversions, st.ConversionRevenue)
	}

	if f.slo != nil {
		f.renderSLO(w, p)
	}
	for _, n := range f.notes {
		fmt.Fprintf(w, "\n%s! %s%s\n", p.yellow, n, p.reset)
	}
}

func (f *frame) renderFunnel(w io.Writer, p palette) {
	rows := funnelRows(f.rings.Series)
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%sFUNNEL%s  (candidates/s, top campaigns by gathered; gate = dominant rejection)\n", p.bold, p.reset)
	const maxRows = 8
	for i, r := range rows {
		if i == maxRows {
			fmt.Fprintf(w, "  %s… %d more campaigns%s\n", p.dim, len(rows)-maxRows, p.reset)
			break
		}
		rate := math.NaN()
		if r.gathered > 0 {
			rate = r.offered / r.gathered
		}
		gate := ""
		if r.topGateV > 0 {
			gate = fmt.Sprintf("  %s %.1f", r.topGate, r.topGateV)
		}
		fmt.Fprintf(w, "  campaign %-8s gathered %8.1f  offered %8.1f  rate %s%s\n",
			r.campaign, r.gathered, r.offered, fmtVal(rate, "%.3f"), gate)
	}
}

func (f *frame) renderSLO(w io.Writer, p palette) {
	if f.slo.Firing > 0 {
		fmt.Fprintf(w, "\n%sSLO%s  %s%d FIRING%s\n", p.bold, p.reset, p.red, f.slo.Firing, p.reset)
	} else {
		fmt.Fprintf(w, "\n%sSLO%s  %sall ok%s\n", p.bold, p.reset, p.green, p.reset)
	}
	for _, r := range f.slo.Rules {
		mark, col := "·", p.dim
		switch r.State {
		case slo.StateOK:
			mark, col = "✓", p.green
		case slo.StateFiring:
			mark, col = "✗", p.red
		}
		dir := ">"
		if r.Below {
			dir = "<"
		}
		val := "—"
		if r.Value != nil {
			val = strconv.FormatFloat(*r.Value, 'g', 4, 64)
		}
		fmt.Fprintf(w, "  %s%s %-12s %-7s%s  %s %s %g  burn %.0f%%/%.0f%%  fired %d\n",
			col, mark, r.Name, strings.ToUpper(string(r.State)), p.reset,
			val, dir, r.Threshold, 100*r.ShortBurn, 100*r.LongBurn, r.Fired)
	}
}
