package core

import (
	"math"
	"slices"

	"muaa/internal/model"
)

// WindowOracle is the GREEDY kernel with retained scratch — the broker's
// live quality-gauge path, which recomputes an offline reference every few
// seconds; Greedy is the same kernel with fresh scratch. The pair table,
// heap, spatial-query buffer and feasibility ledger are kept between calls,
// so a periodic recompute settles into zero steady-state allocation for
// them. Not safe for concurrent use; give each recompute loop its own
// instance.
//
// Paused vendors are excluded from the counterfactual entirely: the index
// never surfaces them, so the oracle cannot spend budgets the online broker
// was forbidden to touch, and a pause-heavy stream's ratio is judged against
// what an admission policy could have reached.
type WindowOracle struct {
	pairs    []scoredPair
	heap     []pairHead
	vbuf     []int32
	spent    []float64
	received []int
	theta    float64
}

// scoredPair is one valid (customer, vendor) pair with its ad-type-free
// utility factor, scored once per solve. Pairs are stored in (customer,
// vendor) order, so a pair's index is its place in GREEDY's tie-break.
type scoredPair struct {
	customer, vendor int32
	base             float64
}

// pairHead is a pair's best ad type not yet tried. A pair has one head at
// a time, so (eff descending, pair ascending) orders the heap totally.
type pairHead struct {
	eff    float64
	pair   int32
	adType int32
}

func (a pairHead) before(b pairHead) bool {
	if a.eff != b.eff {
		return a.eff > b.eff
	}
	return a.pair < b.pair
}

// Name implements Solver.
func (*WindowOracle) Name() string { return "GREEDY" }

// Theta is θ (model.Problem.Theta) of the problem last solved, counted from
// the valid-vendor sets the solve gathered anyway.
func (o *WindowOracle) Theta() float64 { return o.theta }

// Solve implements Solver. The returned assignment is freshly allocated and
// remains valid after later Solve calls; only internal scratch is reused.
//
// Every valid pair is scored once and enters a heap with its best ad type.
// The heap pops in GREEDY's order: a pop that fits is taken and its pair
// dropped (one ad per pair); one whose customer is full drops its pair (the
// customer never empties); one that busts its vendor's budget is replaced by
// the pair's next ad type. This merges the pairs' per-type lists, so it
// tries the candidates of the fully sorted list in the same order, minus
// those that could not fit, and the tail is never sorted: the walk stops
// once every customer with a pair is full.
func (o *WindowOracle) Solve(p *model.Problem) (model.Assignment, error) {
	ix := NewIndex(p)
	// A counting pass sizes the pair table before the fill: grown by append,
	// a first solve's table allocated about twice its final size. Pairs that
	// score 0 are dropped, so the count is an upper bound.
	o.theta = 1
	valid := 0
	for ui := range p.Customers {
		o.vbuf = ix.ValidVendors(o.vbuf[:0], int32(ui))
		valid += len(o.vbuf)
		if nc := max(len(o.vbuf), p.Customers[ui].Capacity); nc > 0 {
			o.theta = min(o.theta, float64(p.Customers[ui].Capacity)/float64(nc))
		}
	}
	o.pairs = slices.Grow(o.pairs[:0], valid)
	open := 0 // customers with headroom and a pair to fill it
	for ui := range p.Customers {
		o.vbuf = ix.ValidVendors(o.vbuf[:0], int32(ui))
		slices.Sort(o.vbuf)
		n := len(o.pairs)
		for _, vj := range o.vbuf {
			if base := p.UtilityBase(int32(ui), vj); base > 0 {
				o.pairs = append(o.pairs, scoredPair{customer: int32(ui), vendor: vj, base: base})
			}
		}
		if len(o.pairs) > n && p.Customers[ui].Capacity > 0 {
			open++
		}
	}
	o.heap = slices.Grow(o.heap[:0], len(o.pairs))
	for i := range o.pairs {
		if h, ok := nextAdType(p, o.pairs[i].base, pairHead{eff: math.Inf(1), adType: -1}); ok {
			h.pair = int32(i)
			o.heap = append(o.heap, h)
		}
	}
	h := o.heap
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}

	o.spent = resize(o.spent, len(p.Vendors))
	o.received = resize(o.received, len(p.Customers))
	var ins []model.Instance
	for len(h) > 0 && open > 0 {
		top := h[0]
		pr := &o.pairs[top.pair]
		cost := p.AdTypes[top.adType].Cost
		switch {
		case o.received[pr.customer] >= p.Customers[pr.customer].Capacity:
		case o.spent[pr.vendor]+cost <= p.Vendors[pr.vendor].Budget+1e-12:
			o.spent[pr.vendor] += cost
			if o.received[pr.customer]++; o.received[pr.customer] == p.Customers[pr.customer].Capacity {
				open--
			}
			ins = append(ins, model.Instance{Customer: pr.customer, Vendor: pr.vendor, AdType: int(top.adType)})
		default:
			if next, ok := nextAdType(p, pr.base, top); ok {
				h[0].eff, h[0].adType = next.eff, next.adType
				siftDown(h, 0)
				continue
			}
		}
		n := len(h) - 1
		h[0], h = h[n], h[:n]
		siftDown(h, 0)
	}
	return finish(p, ins)
}

// nextAdType returns the ad type that follows after in the pair's own
// order (efficiency descending, then type ascending), its efficiency the
// bits model.Problem.Efficiency gives; false when after was the last.
func nextAdType(p *model.Problem, base float64, after pairHead) (pairHead, bool) {
	best := pairHead{adType: -1}
	for k := range p.AdTypes {
		u := base * p.AdTypes[k].Effect
		if u <= 0 {
			continue
		}
		eff := u / p.AdTypes[k].Cost
		if eff < after.eff || eff == after.eff && int32(k) > after.adType {
			if best.adType < 0 || eff > best.eff {
				best = pairHead{eff: eff, adType: int32(k)}
			}
		}
	}
	return best, best.adType >= 0
}

func siftDown(h []pairHead, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// resize returns s with length n and every element zero, reusing its array
// when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
