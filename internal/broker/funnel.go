package broker

// The per-campaign decision funnel. The scan's fleet-wide tallies say *how
// many* candidates each gate rejected; an operator watching one campaign
// starve needs to know *which* gate rejected *that* campaign. The funnel
// attributes every gathered candidate's disposition to its campaign:
//
//	gathered → paused / exhausted / tag_mismatch / low_score / unaffordable
//	         / below_threshold / below_reserve / displaced_by_slate / offered
//
// Attribution is recorded branch-light into an arena-retained event slice
// during the scan (zero allocations in steady state — the slice is kept at
// high-water capacity like every other arena buffer) and folded into the
// campaigns' rows after the scan, still under the stripe locks that own the
// arena.
//
// The counters are exact for every campaign: a campaign's row (72 B) sits in
// its page beside its hot row (see page), so the store grows with the
// campaign directory and the fold is one plain increment per event — the row
// is guarded by the campaign's shard lock, which the folding scan already
// holds and the scrape-cadence readers take. What is bounded is the
// exposition — muaa_funnel_campaign_total carries only the top funnelTopN
// campaigns per scrape, ranked at read time — so the funnel never becomes the
// unbounded-label cardinality trap the obs package refuses to support. Like
// every other instrument, the funnel is observation-only: nothing here feeds
// back into admission, pinned by the golden replay transcript with the funnel
// enabled.

import (
	"errors"
	"strconv"
	"sync/atomic"

	"muaa/internal/obs"
)

// ErrFunnelDisabled is returned by the funnel accessors on a broker built
// without Config.Funnel.Enabled; the debug endpoint maps it to a 404
// funnel_disabled envelope.
var ErrFunnelDisabled = errors.New("broker: per-campaign funnel attribution is disabled; start the broker with the funnel enabled")

// funnelDisposition indexes the per-campaign decision-funnel counters. The
// dispositions partition every gathered candidate — each candidate a scan
// examines lands in exactly one bucket, which is the conservation invariant
// (sum of dispositions == gathered) the soak test pins.
type funnelDisposition uint8

const (
	dispOffered funnelDisposition = iota
	dispPaused
	dispExhausted
	dispTagMismatch
	dispLowScore
	dispUnaffordable
	dispBelowThreshold
	dispBelowReserve
	dispDisplaced
	numDispositions
)

// dispositionNames maps funnel dispositions to their wire/metric labels.
// Unlike the scan-outcome counters, "offered" here means the candidate
// actually won a slot; an admitted candidate dropped by the capacity trim or
// the slate solver is "displaced_by_slate".
var dispositionNames = [numDispositions]string{
	"offered", "paused", "exhausted", "tag_mismatch", "low_score",
	"unaffordable", "below_threshold", "below_reserve", "displaced_by_slate",
}

// funnelEvent is one candidate disposition awaiting the post-scan fold:
// 8 bytes, kept flat in the arena. at is the candidate's index into the
// arena's ids and rows.
type funnelEvent struct {
	at   int32
	disp funnelDisposition
}

// FunnelConfig parameterizes decision-funnel attribution.
type FunnelConfig struct {
	// Enabled turns per-campaign funnel attribution on. Off (the zero value),
	// the scan pays one nil check and no campaign's row is ever written.
	Enabled bool
}

// funnelTopN is how many campaigns (ranked by gathered count) the
// muaa_funnel_campaign_total collector exposes per scrape: series cardinality
// is bounded by funnelTopN × (1 + numDispositions).
const funnelTopN = 16

// funnelRegistry is the fleet-level view over the per-campaign rows. The rows
// themselves live in the fleet's pages (page.funnel); there is deliberately
// no per-row gathered counter — conservation (one disposition per gathered
// candidate) makes gathered the sum of the row, so readers derive it and the
// fold pays one increment per event.
type funnelRegistry struct {
	// b is the broker whose pages carry the rows and whose shard locks guard
	// them.
	b *Broker

	// gathered is the fleet-wide gathered count, fed from the gathered id
	// set rather than the event stream; the rows summing to it is the
	// conservation cross-check CheckInvariants makes. Keeping only this one
	// shared counter on the fold path (plus one row increment per event) is
	// what keeps attribution within noise of a funnel-off broker.
	gathered atomic.Uint64
}

// fold attributes one scan's gathered set and disposition events to their
// campaigns. Caller still holds the stripe locks that own ar (the event
// slice is arena scratch) and passes the fleet the scan gathered against:
// every event names a candidate whose row terms resolved in fl — and a
// campaign sits only in its owning shard's grid, so the caller holds the lock
// that guards its row: the increment is a plain add, and folds from disjoint
// stripe intervals touch disjoint rows. The events follow the scan order, and
// so, near enough, the rows.
//
// One pass over the events and one increment per event: the scan emits
// exactly one event per gathered id (the conservation invariant the -race
// soak pins), so a campaign's gathered count is the sum of its disposition
// row. The fleet per-disposition counts are the scan tally's
// (muaa_broker_scan_outcomes_total), folded from the same scans. The fleet
// gathered counter still comes from ar.ids, keeping the gathered-set/event-set
// cross-check observable.
func (fr *funnelRegistry) fold(ar *scanArena, fl *fleet) {
	fr.gathered.Add(uint64(len(ar.ids)))
	for _, ev := range ar.fev {
		fl.funnelAt(ar.rows[ev.at].row)[ev.disp]++
	}
}

// walk returns the top n ≥ 1 campaigns by gathered count, ties broken by
// ascending id, read in one pass under every shard lock, so the rows are one
// consistent cut: no fold is in flight anywhere. It takes the shard locks
// only, ascending — the global lock order, without regMu: a campaign
// registered meanwhile has an all-zero row whichever header the walk loads —
// and must never be called with a shard lock held. The top n are kept by
// bounded insertion (like the kernel's trim), so the pass is
// O(campaigns + n²) and allocates the n rows whatever the fleet size. The rows
// are read in id order through the id → row map (BenchmarkFunnelWalk prices
// the stall). Scrape-cadence callers only.
func (fr *funnelRegistry) walk(n int) []FunnelCounts {
	b := fr.b
	top := make([]FunnelCounts, 0, n)
	b.lockStripes(0, len(b.shards)-1, nil)
	defer b.unlockStripes(0, len(b.shards)-1)
	fl := b.dir.Load()
	for i := range fl.campaigns {
		id := int32(i)
		row := fl.funnel(id)
		var g uint64
		for _, v := range row {
			g += v
		}
		// Ids ascend along the walk, so only a strictly larger count moves
		// ahead of a row already kept.
		if g == 0 || (len(top) == n && g <= top[n-1].Gathered) {
			continue
		}
		if len(top) < n {
			top = append(top, funnelCounts(id, row))
		} else {
			top[n-1] = funnelCounts(id, row)
		}
		for i := len(top) - 1; i > 0 && top[i].Gathered > top[i-1].Gathered; i-- {
			top[i], top[i-1] = top[i-1], top[i]
		}
	}
	return top
}

// FunnelCounts is one campaign's decision-funnel snapshot: how many times
// the scan gathered the campaign as a candidate and which gate disposed of
// each encounter.
type FunnelCounts struct {
	Campaign       int32  `json:"campaign"`
	Gathered       uint64 `json:"gathered"`
	Offered        uint64 `json:"offered"`
	Paused         uint64 `json:"paused"`
	Exhausted      uint64 `json:"exhausted"`
	TagMismatch    uint64 `json:"tag_mismatch"`
	LowScore       uint64 `json:"low_score"`
	Unaffordable   uint64 `json:"unaffordable"`
	BelowThreshold uint64 `json:"below_threshold"`
	BelowReserve   uint64 `json:"below_reserve"`
	Displaced      uint64 `json:"displaced_by_slate"`
}

// dispositions returns the per-disposition counters as an array indexed by
// funnelDisposition, for callers that iterate (metrics, rendering).
func (fc *FunnelCounts) dispositions() [numDispositions]uint64 {
	return [numDispositions]uint64{
		fc.Offered, fc.Paused, fc.Exhausted, fc.TagMismatch, fc.LowScore,
		fc.Unaffordable, fc.BelowThreshold, fc.BelowReserve, fc.Displaced,
	}
}

// funnelCounts reads campaign id's row, whose sum is Gathered. Caller holds
// the campaign's shard lock.
func funnelCounts(id int32, row *[numDispositions]uint64) FunnelCounts {
	disp := *row
	var g uint64
	for _, v := range disp {
		g += v
	}
	return FunnelCounts{
		Campaign: id, Gathered: g,
		Offered: disp[dispOffered], Paused: disp[dispPaused],
		Exhausted: disp[dispExhausted], TagMismatch: disp[dispTagMismatch],
		LowScore: disp[dispLowScore], Unaffordable: disp[dispUnaffordable],
		BelowThreshold: disp[dispBelowThreshold], BelowReserve: disp[dispBelowReserve],
		Displaced: disp[dispDisplaced],
	}
}

// CampaignFunnel returns the decision-funnel counters for one campaign, read
// under its shard's lock (so never call it with a shard lock held).
// ErrFunnelDisabled without Config.Funnel.Enabled; unknown ids error like
// every other campaign accessor.
func (b *Broker) CampaignFunnel(id int32) (FunnelCounts, error) {
	if b.funnel == nil {
		return FunnelCounts{}, ErrFunnelDisabled
	}
	c, err := b.lookup(id)
	if err != nil {
		return FunnelCounts{}, err
	}
	sh := &b.shards[c.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return funnelCounts(id, b.dir.Load().funnel(id)), nil
}

// registerFunnelMetrics registers the muaa_funnel_* families: the fleet
// gathered count, and a bounded collector over the walk's top-N heavy
// hitters, whose label set shifts with traffic while its cardinality never
// exceeds funnelTopN × (1 + numDispositions) series. A scrape walks the pages
// once, with every shard lock held. The fleet per-disposition counts are not
// repeated here: muaa_broker_scan_outcomes_total carries them.
func registerFunnelMetrics(reg *obs.Registry, b *Broker) {
	fr := b.funnel
	reg.NewCounterFunc("muaa_funnel_gathered_total",
		"Candidate campaigns gathered by arrival scans (top of the decision funnel).",
		func() float64 { return float64(fr.gathered.Load()) })
	reg.NewCollectorFunc("muaa_funnel_campaign_total",
		"Decision-funnel counters for the current top campaigns by gathered count (bounded top-N; disposition=\"gathered\" is the funnel top).",
		"counter",
		func() []obs.Sample {
			top := fr.walk(funnelTopN)
			out := make([]obs.Sample, 0, len(top)*(1+int(numDispositions)))
			for i := range top {
				fc := &top[i]
				cid := strconv.FormatInt(int64(fc.Campaign), 10)
				out = append(out, obs.Sample{
					Labels: []obs.Label{obs.L("campaign", cid), obs.L("disposition", "gathered")},
					Value:  float64(fc.Gathered),
				})
				disp := fc.dispositions()
				for d := funnelDisposition(0); d < numDispositions; d++ {
					out = append(out, obs.Sample{
						Labels: []obs.Label{obs.L("campaign", cid), obs.L("disposition", dispositionNames[d])},
						Value:  float64(disp[d]),
					})
				}
			}
			return out
		})
}
