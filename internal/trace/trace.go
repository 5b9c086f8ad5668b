package trace

import (
	"encoding/json"
	"time"
)

// Stage indices into Trace.Stages. They mirror the broker's arrival-path
// stage histogram: the four phases partition the root span end to end, so
// the child spans sum exactly to the root duration. Gather and scan alternate
// once per arrival; each is reported as its sum over the window.
const (
	StageLockWait = iota // acquiring the stripe locks covering the window
	StageGather          // Σ grid probe + candidate ordering under locks
	StageScan            // Σ score, threshold walk, slot resolve and charge
	StageCommit          // the one WAL append (next to nothing in memory)
	NumStages
)

// StageNames maps stage indices to the span names used in the JSON view
// and the muaa_broker_arrival_stage_seconds metric labels.
var StageNames = [NumStages]string{"lock_wait", "gather", "scan", "commit"}

// Outcomes classify a completed arrival trace for ?outcome= filtering.
const (
	// OutcomeOffered — the arrival received at least one offer.
	OutcomeOffered = "offered"
	// OutcomeNoOffers — the broker processed the arrival but nothing won.
	OutcomeNoOffers = "no_offers"
	// OutcomeError — the broker rejected the arrival (validation error).
	OutcomeError = "error"
	// OutcomeUnavailable — the server turned the request away before it
	// reached the broker (recovery gate 503); recorded by Middleware.
	OutcomeUnavailable = "unavailable"
)

// ScanCounts breaks down how the scan stage disposed of each candidate
// campaign, mirroring the muaa_broker_scan_outcomes_total counters but
// scoped to one arrival.
type ScanCounts struct {
	// Gathered is the number of candidate campaigns the grid probes returned
	// for this arrival — the top of the decision funnel; the remaining fields
	// partition it (offered counts threshold admissions, displaced the
	// admitted candidates later dropped by the capacity trim or slate slot
	// race, so gathered = offered + every rejection + 0·displaced — displaced
	// is a refinement of offered, not a disjoint class).
	Gathered       uint64 `json:"gathered,omitempty"`
	Offered        uint64 `json:"offered,omitempty"`
	Paused         uint64 `json:"paused,omitempty"`
	Exhausted      uint64 `json:"exhausted,omitempty"`
	Mismatch       uint64 `json:"dimension_mismatch,omitempty"`
	LowScore       uint64 `json:"low_score,omitempty"`
	Unaffordable   uint64 `json:"unaffordable,omitempty"`
	BelowThreshold uint64 `json:"below_threshold,omitempty"`
	BelowReserve   uint64 `json:"below_reserve,omitempty"`
	// Displaced counts admitted candidates that lost the slot race (the
	// capacity trim or the slot solver's displacement).
	Displaced uint64 `json:"displaced_by_slate,omitempty"`
}

// Trace is one completed arrival request: a root span plus per-stage child
// durations and the attributes an operator needs to explain a latency
// outlier (stripe range locked, scan outcome tallies, offer count).
type Trace struct {
	// seq is the recorder-assigned sequence number, used to deduplicate a
	// trace that sits in both rings. Zero until recorded.
	seq uint64
	// slow marks a trace whose duration met the recorder's threshold.
	slow bool

	TraceID      TraceID
	SpanID       SpanID
	ParentSpanID SpanID

	Start    time.Time
	Duration time.Duration

	// Stages holds the four child-span durations; valid only when Staged is
	// set (a trace recorded by Middleware for a rejected request has none).
	Stages [NumStages]time.Duration
	Staged bool

	Outcome string
	// Error is the broker's rejection message when Outcome is "error".
	Error string
	// Anomalous forces retention in the kept ring regardless of duration:
	// errors, unavailable rejections, and arrivals that saw an exhausted
	// campaign.
	Anomalous bool

	// StripeLo/StripeHi are the inclusive stripe range locked for the
	// arrival; meaningful only when Staged.
	StripeLo, StripeHi int
	// Capacity is the offer capacity requested by the arrival (for a batch,
	// the sum over its arrivals).
	Capacity int
	// Offers is the number of offers returned (for a batch, the total).
	Offers int
	Scan   ScanCounts

	// Batch is the number of arrivals submitted in an ArriveBatch call; zero
	// for a single-arrival trace. A batch trace's root span is named
	// "arrival_batch", its stage spans mean what a single arrival's do (gather
	// and scan summed over the window), and BatchOutcomes carries one entry
	// per submitted arrival in submission order.
	Batch         int
	BatchOutcomes []BatchOutcome
}

// BatchOutcome is one arrival's disposition inside a batch trace.
type BatchOutcome struct {
	Outcome string `json:"outcome"`
	Offers  int    `json:"offers,omitempty"`
	Error   string `json:"error,omitempty"`
}

// Slow reports whether the trace met the recorder's slow threshold when it
// was recorded.
func (t *Trace) Slow() bool { return t.slow }

// Seq returns the recorder-assigned sequence number (zero if unrecorded).
func (t *Trace) Seq() uint64 { return t.seq }

// wireSpan is one child span in the JSON view.
type wireSpan struct {
	Name          string `json:"name"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNS    int64  `json:"duration_ns"`
}

// wireTrace is the stable JSON schema served by /v1/debug/traces; see
// docs/OPERATIONS.md "Tracing & logs".
type wireTrace struct {
	TraceID       string         `json:"trace_id"`
	SpanID        string         `json:"span_id"`
	ParentSpanID  string         `json:"parent_span_id,omitempty"`
	Name          string         `json:"name"`
	StartUnixNano int64          `json:"start_unix_nano"`
	DurationNS    int64          `json:"duration_ns"`
	Outcome       string         `json:"outcome"`
	Error         string         `json:"error,omitempty"`
	Slow          bool           `json:"slow,omitempty"`
	Anomalous     bool           `json:"anomalous,omitempty"`
	StripeLo      int            `json:"stripe_lo"`
	StripeHi      int            `json:"stripe_hi"`
	Capacity      int            `json:"capacity"`
	Offers        int            `json:"offers"`
	Scan          *ScanCounts    `json:"scan,omitempty"`
	Batch         int            `json:"batch,omitempty"`
	Arrivals      []BatchOutcome `json:"arrivals,omitempty"`
	Spans         []wireSpan     `json:"spans,omitempty"`
}

// MarshalJSON renders the trace in the /v1/debug/traces schema: hex IDs, a
// root "arrival" (or "arrival_batch") span, and child spans whose start
// offsets are cumulative from the root start — the stages run back to back
// for one arrival; for a window, gather and scan are each drawn as one span
// of their summed length.
func (t *Trace) MarshalJSON() ([]byte, error) {
	name := "arrival"
	if t.Batch > 0 {
		name = "arrival_batch"
	}
	w := wireTrace{
		TraceID:       t.TraceID.String(),
		SpanID:        t.SpanID.String(),
		Name:          name,
		StartUnixNano: t.Start.UnixNano(),
		DurationNS:    int64(t.Duration),
		Outcome:       t.Outcome,
		Error:         t.Error,
		Slow:          t.slow,
		Anomalous:     t.Anomalous,
		StripeLo:      t.StripeLo,
		StripeHi:      t.StripeHi,
		Capacity:      t.Capacity,
		Offers:        t.Offers,
	}
	if !t.ParentSpanID.IsZero() {
		w.ParentSpanID = t.ParentSpanID.String()
	}
	if t.Batch > 0 {
		w.Batch = t.Batch
		w.Arrivals = t.BatchOutcomes
	}
	if t.Staged {
		scan := t.Scan
		w.Scan = &scan
		w.Spans = make([]wireSpan, 0, NumStages)
		at := t.Start.UnixNano()
		for i := 0; i < NumStages; i++ {
			w.Spans = append(w.Spans, wireSpan{
				Name:          StageNames[i],
				StartUnixNano: at,
				DurationNS:    int64(t.Stages[i]),
			})
			at += int64(t.Stages[i])
		}
	}
	return json.Marshal(w)
}
