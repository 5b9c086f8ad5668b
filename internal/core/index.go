package core

import (
	"sync"

	"muaa/internal/geo"
	"muaa/internal/model"
)

// Index provides the two spatial queries every MUAA algorithm needs over a
// fixed problem: the vendors whose disks cover a customer (online filtering,
// Algorithm 2 line 2) and the customers inside a vendor's disk (RECON's
// valid-customer sets, Algorithm 1 line 3). Build once per problem; safe for
// concurrent readers. The customer grid is built by the first
// ValidCustomers call, so solvers that never ask pay nothing for it.
type Index struct {
	p            *model.Problem
	vendorGrid   *geo.Grid
	bounds       geo.Rect
	cres         int
	customerOnce sync.Once
	customerGrid *geo.Grid
}

// NewIndex builds grids over the problem's entities. Bounds expand to cover
// entities placed outside the unit square, so the index works for any
// coordinate scale (the paper's worked example uses kilometre-scale
// coordinates).
func NewIndex(p *model.Problem) *Index {
	bounds := expandBounds(p)
	maxR := 0.01
	for j := range p.Vendors {
		if r := p.Vendors[j].Radius; r > maxR {
			maxR = r
		}
	}
	// Normalize the radius to the bounds scale for resolution selection.
	scale := bounds.Width()
	if bounds.Height() > scale {
		scale = bounds.Height()
	}
	vres := geo.GridResolution(len(p.Vendors), maxR/scale)
	cres := geo.GridResolution(len(p.Customers), maxR/scale)
	ix := &Index{p: p, vendorGrid: geo.NewGrid(bounds, vres), bounds: bounds, cres: cres}
	for j := range p.Vendors {
		// Paused vendors never enter the grid: every solver funnels vendor
		// discovery through ValidVendors, so exclusion here makes the
		// whole solver family pause-aware at zero per-query cost.
		// (Recon iterates vendors directly and carries its own skip.)
		if p.Vendors[j].Paused {
			continue
		}
		ix.vendorGrid.InsertWithRadius(int32(j), p.Vendors[j].Loc, p.Vendors[j].Radius)
	}
	return ix
}

func expandBounds(p *model.Problem) geo.Rect {
	b := geo.UnitSquare
	grow := func(pt geo.Point) {
		if pt.X < b.Min.X {
			b.Min.X = pt.X
		}
		if pt.Y < b.Min.Y {
			b.Min.Y = pt.Y
		}
		if pt.X > b.Max.X {
			b.Max.X = pt.X
		}
		if pt.Y > b.Max.Y {
			b.Max.Y = pt.Y
		}
	}
	for i := range p.Customers {
		grow(p.Customers[i].Loc)
	}
	for j := range p.Vendors {
		grow(p.Vendors[j].Loc)
	}
	return b
}

// ValidVendors appends to dst the vendors whose advertising disks cover
// customer ui and returns the extended slice. dst[:len(dst)] is left as
// given, but like geo.Grid.CoveredBy this may write past the returned length
// inside dst's capacity: pass a scratch buffer, not a window onto an array
// whose tail is live.
func (ix *Index) ValidVendors(dst []int32, ui int32) []int32 {
	return ix.vendorGrid.CoveredBy(dst, ix.p.Customers[ui].Loc)
}

// ValidCustomers appends to dst the customers inside vendor vj's disk and
// returns the extended slice.
func (ix *Index) ValidCustomers(dst []int32, vj int32) []int32 {
	ix.customerOnce.Do(func() {
		ix.customerGrid = geo.NewGrid(ix.bounds, ix.cres)
		for i := range ix.p.Customers {
			ix.customerGrid.Insert(int32(i), ix.p.Customers[i].Loc)
		}
	})
	v := &ix.p.Vendors[vj]
	return ix.customerGrid.Within(dst, v.Loc, v.Radius)
}
