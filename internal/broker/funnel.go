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
// The counters are exact for every campaign: a campaign's row is a field of
// its directory entry (campaign.funnel, 72 B), so the store grows with the
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
	"sync"
	"sync/atomic"
	"time"

	"muaa/internal/obs"
)

// ErrFunnelDisabled is returned by the funnel accessors on a broker built
// without Config.Funnel.Enabled; the debug endpoint maps it to a 404
// funnel_disabled envelope.
var ErrFunnelDisabled = errors.New("broker: funnel disabled")

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
// 8 bytes, kept flat in the arena.
type funnelEvent struct {
	id   int32
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
// themselves live on the campaigns (campaign.funnel); there is deliberately
// no per-row gathered counter — conservation (one disposition per gathered
// candidate) makes gathered the sum of the row, so readers derive it and the
// fold pays one increment per event.
type funnelRegistry struct {
	// b is the broker whose directory entries carry the rows and whose shard
	// locks guard them.
	b *Broker

	// gathered is the fleet-wide gathered count, fed from the gathered id
	// set rather than the event stream; walk derives the exact
	// per-disposition fleet counts, and the two agreeing is the
	// conservation cross-check. Keeping only this one shared counter on the
	// fold path (plus one row increment per event) is what keeps attribution
	// within noise of a funnel-off broker.
	gathered atomic.Uint64

	// scrapeMu guards the walk the two collector families share: last is its
	// result, taken at lastAt, and served the families that have rendered from
	// it (see scrape). Taken before the shard locks, never under one.
	scrapeMu sync.Mutex
	last     funnelWalk
	lastAt   time.Time
	served   funnelFamily
}

// fold attributes one scan's gathered set and disposition events to their
// campaigns. Caller still holds the stripe locks that own ar (the event
// slice is arena scratch) and passes the directory the scan gathered against:
// every event id came from a locked grid, so it indexes dir — and a campaign
// sits only in its owning shard's grid, so the caller holds the lock that
// guards its row: the increment is a plain add, and folds from disjoint
// stripe intervals touch disjoint rows.
//
// One pass over the events and one increment per event: the scan emits
// exactly one event per gathered id (the conservation invariant the -race
// soak pins), so a campaign's gathered count is the sum of its disposition
// row, and the fleet per-disposition totals are derived at scrape time by
// walk instead of being maintained on this path. The fleet gathered counter
// still comes from ar.ids, keeping the gathered-set/event-set cross-check
// observable.
func (fr *funnelRegistry) fold(ar *scanArena, dir []*campaign) {
	fr.gathered.Add(uint64(len(ar.ids)))
	for _, ev := range ar.fev {
		dir[ev.id].funnel[ev.disp]++
	}
}

// funnelWalk is one pass over every campaign's row: the exact fleet-wide
// per-disposition counts (the column sums) and the top campaigns by gathered
// count, ties broken by ascending id.
type funnelWalk struct {
	totals [numDispositions]uint64
	top    []FunnelCounts
}

// walk reads every row in one pass under every shard lock, so the totals and
// the top rows are one consistent cut: no fold is in flight anywhere. It takes
// the shard locks only, ascending — the global lock order, without regMu: a
// campaign registered meanwhile has an all-zero row whichever header the walk
// loads — and must never be called with a shard lock held. The top n are kept
// by bounded insertion (like the kernel's trim), so the pass is
// O(campaigns + n²) and allocates the n rows whatever the fleet size; at
// 8 192 campaigns and n = 16 the locks are held ≈ 130 µs — four `dense`
// arrivals' worth, a row's cache miss per campaign, the same straight after
// a walk as after traffic (BenchmarkFunnelWalk). Scrape-cadence callers only.
func (fr *funnelRegistry) walk(n int) funnelWalk {
	b := fr.b
	var w funnelWalk
	if n > 0 {
		w.top = make([]FunnelCounts, 0, n)
	}
	b.lockStripes(0, len(b.shards)-1, nil)
	defer b.unlockStripes(0, len(b.shards)-1)
	for _, c := range b.dir.Load().campaigns {
		var g uint64
		for d, v := range c.funnel {
			w.totals[d] += v
			g += v
		}
		// Ids ascend along the walk, so only a strictly larger count moves
		// ahead of a row already kept.
		if g == 0 || n <= 0 || (len(w.top) == n && g <= w.top[n-1].Gathered) {
			continue
		}
		if len(w.top) < n {
			w.top = append(w.top, c.funnelCounts())
		} else {
			w.top[n-1] = c.funnelCounts()
		}
		for i := len(w.top) - 1; i > 0 && w.top[i].Gathered > w.top[i-1].Gathered; i-- {
			w.top[i], w.top[i-1] = w.top[i-1], w.top[i]
		}
	}
	return w
}

// funnelFamily names the two collector families that render from a walk.
type funnelFamily uint8

const (
	familyDispositions funnelFamily = 1 << iota
	familyCampaigns
)

// scrape returns the walk family f renders from. A scrape runs the two
// collectors back to back, so one walk serves each family once: the first to
// ask walks, the other takes the same cut, and a family asking again — the
// next scrape — walks afresh. A cut left unclaimed (a scrape filtered to one
// family) is not handed out after funnelScrapeShare.
func (fr *funnelRegistry) scrape(f funnelFamily) funnelWalk {
	fr.scrapeMu.Lock()
	defer fr.scrapeMu.Unlock()
	if fr.served&f != 0 || time.Since(fr.lastAt) > funnelScrapeShare {
		fr.last, fr.lastAt, fr.served = fr.walk(funnelTopN), time.Now(), 0
	}
	fr.served |= f
	return fr.last
}

// funnelScrapeShare bounds how old a walk one collector left behind may be
// when the other picks it up: well over the gap between two collectors of one
// scrape, well under any scrape interval.
const funnelScrapeShare = 100 * time.Millisecond

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

// funnelCounts reads the campaign's row, whose sum is Gathered. Caller holds
// the campaign's shard lock.
func (c *campaign) funnelCounts() FunnelCounts {
	disp := c.funnel
	var g uint64
	for _, v := range disp {
		g += v
	}
	return FunnelCounts{
		Campaign: c.id, Gathered: g,
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
	c, err := b.campaign(id)
	if err != nil {
		return FunnelCounts{}, err
	}
	sh := &b.shards[c.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return c.funnelCounts(), nil
}

// registerFunnelMetrics registers the muaa_funnel_* families. The fleet
// per-disposition family is a collector over the walk's exact column sums
// (always all numDispositions series); the per-campaign family is a bounded
// collector over the walk's top-N heavy hitters, so its label set shifts with
// traffic while its cardinality never exceeds funnelTopN × (1 +
// numDispositions) series. Both render from one walk per scrape (see scrape):
// one pass over the directory with every shard lock held, ≈ 130 µs at 8 192
// campaigns.
func registerFunnelMetrics(reg *obs.Registry, b *Broker) {
	fr := b.funnel
	reg.NewCounterFunc("muaa_funnel_gathered_total",
		"Candidate campaigns gathered by arrival scans (top of the decision funnel).",
		func() float64 { return float64(fr.gathered.Load()) })
	reg.NewCollectorFunc("muaa_funnel_dispositions_total",
		"Gathered candidates by final funnel disposition, fleet-wide; the dispositions sum to muaa_funnel_gathered_total.",
		"counter",
		func() []obs.Sample {
			tot := fr.scrape(familyDispositions).totals
			out := make([]obs.Sample, 0, numDispositions)
			for d := funnelDisposition(0); d < numDispositions; d++ {
				out = append(out, obs.Sample{
					Labels: []obs.Label{obs.L("disposition", dispositionNames[d])},
					Value:  float64(tot[d]),
				})
			}
			return out
		})
	reg.NewCollectorFunc("muaa_funnel_campaign_total",
		"Decision-funnel counters for the current top campaigns by gathered count (bounded top-N; disposition=\"gathered\" is the funnel top).",
		"counter",
		func() []obs.Sample {
			top := fr.scrape(familyCampaigns).top
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
