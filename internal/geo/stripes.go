package geo

import "fmt"

// Stripes partitions a Rect into n horizontal bands whose edges fall on the
// cell rows of a cells×cells Grid over the same bounds: band i holds cell rows
// [⌊i·cells/n⌋, ⌊(i+1)·cells/n⌋), with a row's index computed exactly as
// Grid.cellOf computes it. The broker shards its campaign state by stripe: a
// campaign belongs to the stripe containing its center, and a query disk
// (center, r) can only reach campaigns whose stripes overlap the disk's
// Y-window — Range returns exactly that contiguous stripe interval, which
// doubles as a deadlock-free lock acquisition order (always ascending).
// Because no cell row is split between two bands, concatenating the stripes'
// grid scans gives one order — by cell row, then cell, then insertion —
// whatever the band count.
//
// Stripes is immutable and safe for concurrent use.
type Stripes struct {
	bounds Rect
	n      int
	cells  int
	cellH  float64 // a grid cell's height
}

// NewStripes partitions bounds into n horizontal bands on the rows of a
// cells×cells grid; 1 ≤ n ≤ cells and bounds must be non-degenerate.
func NewStripes(bounds Rect, n, cells int) Stripes {
	if n < 1 || n > cells {
		panic(fmt.Sprintf("geo: stripe count %d outside [1, %d cell rows]", n, cells))
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		panic(fmt.Sprintf("geo: degenerate stripe bounds %+v", bounds))
	}
	return Stripes{bounds: bounds, n: n, cells: cells, cellH: bounds.Height() / float64(cells)}
}

// Of returns the index of the band containing p, clamping points outside the
// bounds to the nearest band so every point maps somewhere.
func (s Stripes) Of(p Point) int { return s.ofY(p.Y) }

// ofY is the band of y's cell row cy: the last band starting at or below it,
// the largest i with ⌊i·cells/n⌋ ≤ cy.
func (s Stripes) ofY(y float64) int {
	cy := axisCell(y, s.bounds.Min.Y, s.bounds.Max.Y, s.cellH, s.cells)
	return ((cy+1)*s.n - 1) / s.cells
}

// Range returns the inclusive band interval [lo, hi] overlapping the closed
// Y-window [yLo, yHi] (clamped into bounds). A disk query (center, r) maps to
// Range(center.Y-r, center.Y+r).
func (s Stripes) Range(yLo, yHi float64) (lo, hi int) {
	lo, hi = s.ofY(yLo), s.ofY(yHi)
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo, hi
}
