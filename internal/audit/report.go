// Package audit replays a broker's committed decision stream into a static
// MUAA problem instance and measures the online algorithm against offline
// references on exactly the arrival sequence it served: the empirical
// competitive ratio vs the paper's (ln g + 1)/θ bound, per-campaign budget
// utilization and pacing, and the online/oracle offer-mix divergence.
//
// The package is pure computation: it knows nothing about WALs or HTTP.
// Callers (internal/broker.ReplayAudit, the broker's live window loop)
// assemble an Input from whatever decision source they have; Compute turns
// it into a Report deterministically — the same Input yields a byte-identical
// EncodeJSON document, which golden tests pin.
package audit

import (
	"bytes"
	"encoding/json"
)

// ReportSchema versions the report document; consumers should check it
// before relying on field semantics. Fields are only ever added.
const ReportSchema = "muaa-audit/1"

// DeltaRegret is the counterfactual quality of a fixed admission threshold
// φ(δ) on the audited stream: what a broker pinned at budget-consumption
// point δ of the adaptive schedule would have achieved, and how far that
// falls short of the oracle.
type DeltaRegret struct {
	Delta     float64 `json:"delta"`
	Threshold float64 `json:"threshold"`
	Utility   float64 `json:"utility"`
	Regret    float64 `json:"regret"`
}

// MixEntry compares how often one ad type was used online vs by the oracle.
type MixEntry struct {
	AdType      int     `json:"ad_type"`
	Name        string  `json:"name"`
	Online      int     `json:"online"`
	Oracle      int     `json:"oracle"`
	OnlineShare float64 `json:"online_share"`
	OracleShare float64 `json:"oracle_share"`
}

// CampaignAudit is one campaign's budget story over the audited stream.
type CampaignAudit struct {
	ID          int32   `json:"id"`
	Budget      float64 `json:"budget"`
	SpentBefore float64 `json:"spent_before"`
	SpentWindow float64 `json:"spent_window"`
	// SpentTotal is SpentBefore plus every audited offer's cost, accumulated
	// in stream order — the same serial float sum the live broker performed,
	// so it equals the broker's per-campaign Spent bit for bit.
	SpentTotal    float64 `json:"spent_total"`
	Utilization   float64 `json:"utilization"`
	OnlineUtility float64 `json:"online_utility"`
	OracleSpent   float64 `json:"oracle_spent"`
	OracleUtility float64 `json:"oracle_utility"`
	// PacingCurve is the campaign's cumulative budget utilization at each
	// decile of the arrival sequence: PacingCurve[d] is Spent/Budget after
	// the first (d+1)/10 of arrivals. A well-paced campaign climbs roughly
	// linearly; a front-loaded one saturates early.
	PacingCurve []float64 `json:"pacing_curve"`
}

// Report is the machine-readable audit result.
type Report struct {
	Schema string `json:"schema"`
	// GeneratedAt is stamped by commands, never by Compute, so the
	// computation itself stays deterministic (golden tests compare reports
	// with this field empty).
	GeneratedAt string `json:"generated_at,omitempty"`
	// Mode is "full-history" (replayed from the empty state) or "window"
	// (snapshot handoff or live sliding window).
	Mode   string `json:"mode"`
	Source string `json:"source,omitempty"`

	Arrivals int `json:"arrivals"`
	// PausedCampaigns counts campaigns paused at the end of the audited
	// stream. They are excluded from the oracle problem: the online broker
	// was forbidden to spend their budgets, so a counterfactual spending
	// them would depress the ratio for reasons no admission policy can fix.
	PausedCampaigns int `json:"paused_campaigns"`
	// AuditedArrivals is how many arrivals entered the oracle problem (those
	// with capacity > 0). Offers of non-audited arrivals still charge budgets
	// but join neither side of the ratio.
	AuditedArrivals int `json:"audited_arrivals"`
	Campaigns       int `json:"campaigns"`
	Offers          int `json:"offers"`

	OnlineUtility float64 `json:"online_utility"`
	ReconUtility  float64 `json:"recon_utility,omitempty"`
	GreedyUtility float64 `json:"greedy_utility"`
	// OracleUtility is the best known feasible solution of the offline
	// problem — the max of every reference computed and the online outcome
	// itself (which is feasible by construction). Using the max makes the
	// oracle a true lower bound on the offline optimum, so EmpiricalRatio
	// never exceeds 1.
	OracleUtility float64 `json:"oracle_utility"`
	OracleSolver  string  `json:"oracle_solver"`
	// EmpiricalRatio is OnlineUtility / OracleUtility (1 when both are 0).
	EmpiricalRatio float64 `json:"empirical_ratio"`
	Regret         float64 `json:"regret"`

	Theta     float64 `json:"theta"`
	GammaMin  float64 `json:"gamma_min"`
	GammaMax  float64 `json:"gamma_max"`
	GObserved float64 `json:"g_observed"`
	// CompetitiveBound is (ln g + 1)/θ — the paper's worst-case bound on
	// oracle/online. 0 means undefined (θ = 0: some audited customer has no
	// capacity headroom relationship, so the theorem does not apply).
	CompetitiveBound float64 `json:"competitive_bound"`
	// BoundSatisfied reports EmpiricalRatio ≥ 1/CompetitiveBound — the
	// achieved quality is inside the theoretical guarantee (vacuously true
	// when the bound is undefined).
	BoundSatisfied bool `json:"bound_satisfied"`

	RegretByDelta []DeltaRegret `json:"regret_by_delta"`

	OfferMix []MixEntry `json:"offer_mix"`
	// MixDivergence is the total-variation distance between the online and
	// oracle ad-type distributions: 0 means the online broker sells the same
	// mix the oracle would, 1 means disjoint mixes.
	MixDivergence float64 `json:"mix_divergence"`

	// HourFraction is the last audited arrival's hour / 24 — the elapsed-day
	// fraction pacing curves are read against.
	HourFraction float64 `json:"hour_fraction"`

	// Revenue accounting, in expected value at commit time so the numbers
	// are deterministic from the decision stream alone: an immediate (fixed
	// or CPM) offer contributes its realized cost, a deferred (CPC/CPA)
	// offer its rate-weighted escrow hold ChargeECPM/1000. OracleRevenue
	// prices the oracle's utility-optimal slate at each campaign's
	// first-price expectation (no counterfactual auction is simulated), so
	// RevenueRatio — OnlineRevenue/OracleRevenue, 1 when the oracle earns
	// nothing — is conservative under second-price billing and can exceed 1
	// when the online broker out-earns the utility-maximizing slate.
	OnlineRevenue float64 `json:"online_revenue"`
	OracleRevenue float64 `json:"oracle_revenue"`
	RevenueRatio  float64 `json:"revenue_ratio"`
	// Realized billing telemetry at the end of the audited stream, copied
	// from the caller's decision source: budget held against unconverted
	// CPC/CPA offers, revenue collected by conversions, and their count.
	EscrowHeld       float64 `json:"escrow_held"`
	ConvertedRevenue float64 `json:"converted_revenue"`
	Conversions      int64   `json:"conversions"`

	CampaignAudits []CampaignAudit `json:"campaign_audits"`
}

// EncodeJSON renders the report as indented JSON with a trailing newline.
// The encoding is deterministic: field order is fixed by the struct, every
// slice is deterministically ordered by Compute, and there are no maps.
func (r *Report) EncodeJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
