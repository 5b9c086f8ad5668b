package core

import (
	"slices"

	"muaa/internal/model"
)

// WindowOracle is a GREEDY solver tuned for repeated solves over a sliding
// window of recent arrivals — the broker's live quality-gauge path, which
// recomputes an offline reference every few seconds. It produces exactly the
// assignment Greedy{} produces (same candidates, same ordering, same
// tie-breaks), but the candidate list, spatial-query buffer and feasibility
// ledger are retained between calls, so a periodic recompute settles into
// zero steady-state allocation for those structures. Not safe for concurrent
// use; give each recompute loop its own instance.
//
// Paused vendors are excluded from the counterfactual entirely: the index
// never surfaces them, so the oracle cannot spend budgets the online broker
// was forbidden to touch, and a pause-heavy stream's ratio is judged against
// what an admission policy could have reached.
type WindowOracle struct {
	cands    []candidate
	vbuf     []int32
	spent    []float64
	received []int
	pairUsed map[[2]int32]bool
}

// Name implements Solver.
func (*WindowOracle) Name() string { return "GREEDY" }

// Solve implements Solver. The returned assignment is freshly allocated and
// remains valid after later Solve calls; only internal scratch is reused.
func (o *WindowOracle) Solve(p *model.Problem) (model.Assignment, error) {
	ix := NewIndex(p)
	// Inline allCandidates over the retained buffers.
	o.cands = o.cands[:0]
	for ui := range p.Customers {
		o.vbuf = ix.ValidVendors(o.vbuf[:0], int32(ui))
		for _, vj := range o.vbuf {
			base := p.UtilityBase(int32(ui), vj)
			if base <= 0 {
				continue
			}
			for k := range p.AdTypes {
				u := base * p.AdTypes[k].Effect
				if u <= 0 {
					continue
				}
				o.cands = append(o.cands, candidate{
					customer: int32(ui),
					vendor:   vj,
					adType:   k,
					utility:  u,
					eff:      u / p.AdTypes[k].Cost,
				})
			}
		}
	}
	cands := o.cands
	slices.SortFunc(cands, greedyOrder)

	// The ledger, rebuilt in place.
	if cap(o.spent) < len(p.Vendors) {
		o.spent = make([]float64, len(p.Vendors))
	}
	o.spent = o.spent[:len(p.Vendors)]
	for i := range o.spent {
		o.spent[i] = 0
	}
	if cap(o.received) < len(p.Customers) {
		o.received = make([]int, len(p.Customers))
	}
	o.received = o.received[:len(p.Customers)]
	for i := range o.received {
		o.received[i] = 0
	}
	if o.pairUsed == nil {
		o.pairUsed = make(map[[2]int32]bool, len(p.Customers))
	} else {
		clear(o.pairUsed)
	}
	led := ledger{p: p, spent: o.spent, received: o.received, pairUsed: o.pairUsed}

	var ins []model.Instance
	for _, c := range cands {
		if !led.fits(c) {
			continue
		}
		led.take(c)
		ins = append(ins, model.Instance{Customer: c.customer, Vendor: c.vendor, AdType: c.adType})
	}
	return finish(p, ins)
}
