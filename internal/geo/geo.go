package geo

import (
	"fmt"
	"math"
)

// Point is a location in the 2-D data space. The paper maps all coordinates
// into [0,1]², but nothing in this package requires that except the grid
// index, which clamps out-of-range queries to its configured bounds.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. Comparisons
// against radii use Dist2 to avoid the square root on the hot path.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// In reports whether p lies inside the closed disk of radius r centred at c.
func (p Point) In(c Point, r float64) bool {
	return p.Dist2(c) <= r*r
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.4f, %.4f)", p.X, p.Y)
}

// Rect is a closed axis-aligned rectangle.
type Rect struct {
	Min, Max Point
}

// UnitSquare is the paper's data space.
var UnitSquare = Rect{Min: Point{0, 0}, Max: Point{1, 1}}

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }
