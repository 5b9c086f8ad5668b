package main

import (
	"strings"
	"testing"

	"muaa/internal/broker"
)

// TestRenderNamesTheKernelsResolver renders canned reports and checks the
// header names the slot rules the kernel applies (trim | slots, kernel.go):
// only an auction-resolved arrival with more than one slot races under the
// slate rules.
func TestRenderNamesTheKernelsResolver(t *testing.T) {
	offer := &broker.ExplainOffer{Name: "banner", Cost: 0.5, ChargeECPM: 120}
	cands := []broker.ExplainCandidate{
		{Campaign: 7, Disposition: "offered", Threshold: 0.25, Delta: 0.5, Offer: offer,
			Bids: []broker.ExplainBid{{Name: "text", Efficiency: 3}, {Name: "banner", Efficiency: 2, Chosen: true}}},
		{Campaign: 9, Disposition: "below_threshold", Threshold: 0.25,
			Bids: []broker.ExplainBid{{Name: "text", Efficiency: 0.1}, {Name: "banner", Efficiency: 0.2}}},
		{Campaign: 11, Disposition: "paused"},
	}
	for _, tc := range []struct {
		name     string
		slate    bool
		capacity int
		header   string
	}{
		{"fixed fleet", false, 3, "resolver=trim auction=false "},
		{"auction at capacity 1", true, 1, "resolver=trim auction=true "},
		{"auction at capacity 3", true, 3, "resolver=slots auction=true "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := broker.ExplainReport{Slate: tc.slate, Boost: 1, GammaMin: 0.5, GammaMax: 4, G: 21.7,
				StripeLo: 2, StripeHi: 3, Gathered: 3, Offered: 1, Candidates: cands}
			var sb strings.Builder
			render(&sb, &rep, tc.capacity)
			lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
			if len(lines) != 1+len(cands) {
				t.Fatalf("rendered %d lines, want a header and %d candidates:\n%s", len(lines), len(cands), sb.String())
			}
			if want := tc.header + "stripes=[2,3] gathered=3 offered=1 boost=1 γ=[0.5, 4] g=21.7"; lines[0] != want {
				t.Errorf("header %q, want %q", lines[0], want)
			}
			// The chosen bid, not the most efficient one; then the bid that came
			// closest to admission.
			if want := "best=banner eff=2 → offer banner slot=0 cost=0.5 charge_ecpm=120"; !strings.Contains(lines[1], want) {
				t.Errorf("winner line %q lacks %q", lines[1], want)
			}
			if want := "best=banner eff=0.2"; !strings.Contains(lines[2], "below_threshold") || !strings.Contains(lines[2], want) {
				t.Errorf("rejected line %q lacks below_threshold or %q", lines[2], want)
			}
			if strings.Contains(lines[3], "φ=") {
				t.Errorf("a candidate with no bids printed a threshold: %q", lines[3])
			}
		})
	}
}
