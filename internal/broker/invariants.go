package broker

import (
	"fmt"
	"math"
	"net/http"

	"muaa/internal/model"
	"muaa/internal/obs"
)

// CheckInvariants reports the first broken rule of the broker's contract, or
// nil when every rule holds. Tests, soaks, the kernel fuzzer, the pacing
// simulation and the debug listener all check the contract through it:
//
//   - the directory is dense: campaign i has id i and lives in the stripe
//     its location falls in, and the id → row map is a permutation of the
//     rows;
//   - per campaign, budget is finite and ≥ 0, spent and escrow are ≥ 0,
//     spent + escrow ≤ budget, and converted revenue ≤ spent;
//   - the campaign books sum to the broker's counters: spent, escrow held,
//     converted revenue and the conversion count; the utility served is
//     finite and ≥ 0;
//   - the escrow table agrees with the books: each open offer names a
//     deferred-billing campaign, a positive hold and an id inside
//     [eviction cursor, next id), the table fits its bound, and a
//     campaign's open holds sum to its escrow;
//   - the released holds are finite and ≥ 0, and the CPC and CPA revenue
//     counters sum to the converted revenue;
//   - the idempotency window is one consistent FIFO, within its bound, and
//     holds no more keys than conversions were collected;
//   - γ is unseen (γ_min = +Inf, γ_max = 0) or 0 < γ_min ≤ γ_max < +Inf;
//   - with the funnel on, the campaigns' disposition rows sum to the fleet
//     gathered count (one disposition per gathered candidate).
//
// Sums of float money compare within 1e-9 relative (absolute below 1), the
// slack their differing summation orders need. The check runs under
// quiesce — registrations and every stripe lock, then the billing mutex —
// so it reads one consistent cut while serving waits: O(campaigns + open
// offers), for tests and the debug listener, never the serving path.
func (b *Broker) CheckInvariants() error {
	defer b.quiesce()()
	bl := b.billing
	bl.mu.Lock()
	defer bl.mu.Unlock()

	f := b.dir.Load()
	n := len(f.campaigns)
	var spent, escrow, converted float64
	var conversions int64
	holds := make([]float64, n)
	taken := make([]bool, n)
	for i, c := range f.campaigns {
		if c.id != int32(i) {
			return fmt.Errorf("broker: directory slot %d holds campaign %d", i, c.id)
		}
		if r := f.rowOf[i]; r < 0 || int(r) >= n || taken[r] {
			return fmt.Errorf("broker: campaign %d maps to row %d, outside [0, %d) or shared", i, r, n)
		}
		taken[f.rowOf[i]] = true
		h := f.row(c.id)
		if c.shard != b.stripes.Of(h.loc) {
			return fmt.Errorf("broker: campaign %d at %v sits in stripe %d, not %d", i, h.loc, c.shard, b.stripes.Of(h.loc))
		}
		cb, cs, ce, cv := h.budget.Load(), h.spent.Load(), h.escrow.Load(), c.converted.Load()
		switch {
		case !finite(cb) || cb < 0:
			return fmt.Errorf("broker: campaign %d budget %g", i, cb)
		case !atMost(0, cs) || !atMost(0, ce):
			return fmt.Errorf("broker: campaign %d spent %g, escrow %g: negative", i, cs, ce)
		case !atMost(cs+ce, cb):
			return fmt.Errorf("broker: campaign %d spent %g + escrow %g exceeds budget %g", i, cs, ce, cb)
		case !atMost(cv, cs):
			return fmt.Errorf("broker: campaign %d converted %g exceeds spent %g", i, cv, cs)
		}
		spent += cs
		escrow += ce
		converted += cv
		conversions += c.conversions.Load()
	}
	switch {
	case !near(spent, b.spent.Load()):
		return fmt.Errorf("broker: campaigns spent %g, counter %g", spent, b.spent.Load())
	case !near(escrow, bl.held.Load()):
		return fmt.Errorf("broker: campaigns hold %g in escrow, counter %g", escrow, bl.held.Load())
	case !near(converted, bl.convertedRev.Load()):
		return fmt.Errorf("broker: campaigns converted %g, counter %g", converted, bl.convertedRev.Load())
	case conversions != bl.conversions.Load():
		return fmt.Errorf("broker: campaigns count %d conversions, counter %d", conversions, bl.conversions.Load())
	case !finite(b.utility.Load()) || b.utility.Load() < 0:
		return fmt.Errorf("broker: utility served %g", b.utility.Load())
	case !finite(bl.released.Load()) || bl.released.Load() < 0:
		return fmt.Errorf("broker: escrow released %g", bl.released.Load())
	}
	if deferred := bl.revenue[model.BillingCPC].Load() + bl.revenue[model.BillingCPA].Load(); !near(deferred, bl.convertedRev.Load()) {
		return fmt.Errorf("broker: cpc+cpa revenue %g, converted revenue %g", deferred, bl.convertedRev.Load())
	}

	if len(bl.open) > bl.maxOpen || int64(len(bl.open)) != bl.openCount.Load() {
		return fmt.Errorf("broker: escrow table holds %d offers (gauge %d, bound %d)", len(bl.open), bl.openCount.Load(), bl.maxOpen)
	}
	for id, o := range bl.open {
		if id < bl.evictNext || id >= bl.nextID {
			return fmt.Errorf("broker: open offer %d outside [%d, %d)", id, bl.evictNext, bl.nextID)
		}
		if o.campaign < 0 || int(o.campaign) >= n || !o.model.Deferred() || !(o.hold > 0) || !finite(o.hold) {
			return fmt.Errorf("broker: open offer %d is %+v", id, o)
		}
		if m := f.billing(o.campaign).Model; m != o.model {
			return fmt.Errorf("broker: open offer %d bills %v, campaign %d bills %v", id, o.model, o.campaign, m)
		}
		holds[o.campaign] += o.hold
	}
	for i := range f.campaigns {
		if e := f.row(int32(i)).escrow.Load(); !near(holds[i], e) {
			return fmt.Errorf("broker: campaign %d escrow %g, its open holds sum to %g", i, e, holds[i])
		}
	}

	window := bl.idemQ[bl.idemHead:]
	if len(window) != len(bl.idem) || len(window) > bl.maxOpen || int64(len(window)) > bl.conversions.Load() {
		return fmt.Errorf("broker: idempotency window queues %d keys, indexes %d (bound %d, %d conversions)",
			len(window), len(bl.idem), bl.maxOpen, bl.conversions.Load())
	}
	for _, k := range window {
		if _, ok := bl.idem[k]; !ok {
			return fmt.Errorf("broker: idempotency key %q queued but not indexed", k)
		}
	}

	if gmin, gmax := b.gammaMin.Load(), b.gammaMax.Load(); gmax == 0 {
		if !math.IsInf(gmin, 1) {
			return fmt.Errorf("broker: γ_min %g with no γ_max observed", gmin)
		}
	} else if !(gmin > 0 && gmin <= gmax && finite(gmax)) {
		return fmt.Errorf("broker: γ bounds [%g, %g]", gmin, gmax)
	}

	if fr := b.funnel; fr != nil {
		var rows uint64
		for i := range f.campaigns {
			for _, v := range f.funnel(int32(i)) {
				rows += v
			}
		}
		if g := fr.gathered.Load(); rows != g {
			return fmt.Errorf("broker: funnel rows hold %d dispositions for %d gathered candidates", rows, g)
		}
	}
	return nil
}

// near reports whether two sums of the same money agree within the slack of
// their summation orders.
func near(x, y float64) bool {
	return math.Abs(x-y) <= 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
}

// atMost reports x ≤ y within the same slack.
func atMost(x, y float64) bool {
	return x <= y+1e-9*math.Max(1, math.Abs(y))
}

// ServeInvariants serves GET /v1/debug/invariants: 200 {"ok":true} when
// CheckInvariants passes, else 500 invariant_violated naming the broken rule.
// It stops serving for the length of one check.
func (b *Broker) ServeInvariants(w http.ResponseWriter, r *http.Request) {
	if err := b.CheckInvariants(); err != nil {
		obs.WriteError(w, http.StatusInternalServerError, "invariant_violated", err.Error())
		return
	}
	obs.WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
