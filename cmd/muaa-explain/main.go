// Command muaa-explain asks a running muaa-serve "why did (or didn't) this
// arrival get these offers?" — the operator's per-request drill-down into
// the O-AFA decision. It posts a hypothetical arrival to the debug
// listener's POST /v1/debug/explain (a read-only replay of the real
// gather/scan under the covering stripe locks: nothing is committed, no γ
// observation, no spend) and renders the per-candidate verdicts: which
// funnel gate disposed of each candidate, the threshold it faced, and the
// per-ad-type bids.
//
//	muaa-explain -addr http://127.0.0.1:6060 -x 0.5 -y 0.5 -capacity 2 \
//	    -viewprob 0.7 -interests 0.9,0.1,0.3 -hour 12
//
// Output is one line per gathered candidate (campaign id, disposition,
// threshold, best bid) plus a summary header; -json dumps the raw
// ExplainReport instead, for scripts. Typical triage: a campaign's funnel
// (GET /v1/debug/campaigns/{id}/funnel) shows below_threshold piling up →
// muaa-explain at a representative arrival shows exactly how far its bids
// fall below φ(δ). See docs/OPERATIONS.md "Decision funnel & explain".
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"muaa/internal/broker"
	"muaa/internal/buildinfo"
)

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:6060", "muaa-serve debug base URL (the -debug-addr listener)")
		x         = flag.Float64("x", 0.5, "arrival location x")
		y         = flag.Float64("y", 0.5, "arrival location y")
		capacity  = flag.Int("capacity", 1, "offer capacity of the hypothetical arrival")
		viewProb  = flag.Float64("viewprob", 1, "view probability in [0, 1]")
		interests = flag.String("interests", "", "comma-separated interest vector (must match campaign tag dimensionality)")
		hour      = flag.Float64("hour", 12, "arrival hour in [0, 24)")
		asJSON    = flag.Bool("json", false, "dump the raw explain report as JSON")
		timeout   = flag.Duration("timeout", 5*time.Second, "HTTP timeout")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("muaa-explain"))
		return
	}
	iv, err := parseVector(*interests)
	if err != nil {
		fatal(err)
	}
	req := map[string]any{
		"loc":      map[string]float64{"x": *x, "y": *y},
		"capacity": *capacity,
		"viewProb": *viewProb,
		"hour":     *hour,
	}
	if iv != nil {
		req["interests"] = iv
	}
	body, err := json.Marshal(req)
	if err != nil {
		fatal(err)
	}
	hc := &http.Client{Timeout: *timeout}
	resp, err := hc.Post(strings.TrimRight(*addr, "/")+"/v1/debug/explain",
		"application/json", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(raw))))
	}
	if *asJSON {
		os.Stdout.Write(raw)
		if len(raw) == 0 || raw[len(raw)-1] != '\n' {
			fmt.Println()
		}
		return
	}
	var rep broker.ExplainReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		fatal(fmt.Errorf("decoding explain report: %w", err))
	}
	render(os.Stdout, &rep, *capacity)
}

func parseVector(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -interests element %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// render prints the human view: a summary header, then one line per
// candidate, by campaign id, with its disposition verdict. The header's
// resolver names the slot rules the kernel's one race applies (DESIGN.md
// §15): slots for an auction-resolved arrival with more than one slot, trim
// otherwise.
func render(w io.Writer, rep *broker.ExplainReport, capacity int) {
	resolver := "trim"
	if rep.Slate && capacity > 1 {
		resolver = "slots"
	}
	fmt.Fprintf(w, "resolver=%s auction=%t stripes=[%d,%d] gathered=%d offered=%d boost=%g γ=[%g, %g] g=%g\n",
		resolver, rep.Slate, rep.StripeLo, rep.StripeHi, rep.Gathered, rep.Offered,
		rep.Boost, rep.GammaMin, rep.GammaMax, rep.G)
	for i := range rep.Candidates {
		c := &rep.Candidates[i]
		fmt.Fprintf(w, "campaign %-6d %-18s", c.Campaign, c.Disposition)
		if len(c.Bids) > 0 {
			fmt.Fprintf(w, " φ=%-12.6g δ=%-8.4g", c.Threshold, c.Delta)
			best := bestBid(c)
			if best != nil {
				fmt.Fprintf(w, " best=%s eff=%.6g", best.Name, best.Efficiency)
			}
		}
		if c.Offer != nil {
			fmt.Fprintf(w, " → offer %s slot=%d cost=%g", c.Offer.Name, c.Offer.Slot, c.Offer.Cost)
			if c.Offer.ChargeECPM > 0 {
				fmt.Fprintf(w, " charge_ecpm=%g", c.Offer.ChargeECPM)
			}
		}
		fmt.Fprintln(w)
	}
}

// bestBid picks the candidate's chosen bid, falling back to its highest
// evaluated efficiency (the bid that came closest to admission).
func bestBid(c *broker.ExplainCandidate) *broker.ExplainBid {
	var best *broker.ExplainBid
	for i := range c.Bids {
		b := &c.Bids[i]
		if b.Chosen {
			return b
		}
		if b.Efficiency > 0 && (best == nil || b.Efficiency > best.Efficiency) {
			best = b
		}
	}
	return best
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "muaa-explain:", err)
	os.Exit(1)
}
