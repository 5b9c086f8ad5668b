package geo

import (
	"fmt"
	"math"
)

// Grid is a uniform-grid spatial index over a fixed set of points. Each
// point is identified by the integer ID supplied at insertion time (the
// caller's customer or vendor index). The grid supports the two queries the
// MUAA algorithms need:
//
//   - Within(center, r): IDs of indexed points inside the closed disk —
//     used by RECON to find a vendor's valid customers;
//   - CoveredBy(p, radii): IDs of indexed points (vendors) whose per-point
//     disk of radius radii[id] covers p — used by the online algorithms to
//     find the vendors an arriving customer is eligible for.
//
// Each cell stores its points inline — id, location and squared radius, in
// insertion order — so a query scans contiguous arrays and touches no map;
// the id → location map serves only Point, Len and the duplicate check.
//
// The zero value is not usable; construct with NewGrid. Grid is safe for
// concurrent readers once built; Insert must not race with queries.
type Grid struct {
	bounds   Rect
	cellsX   int
	cellsY   int
	cellW    float64
	cellH    float64
	cells    [][]cellPoint
	pts      map[int32]Point
	maxR     float64 // largest per-point radius seen by InsertWithRadius
	hasRadii bool
}

// cellPoint is one indexed point as its cell stores it. r2 is the squared
// radius given to InsertWithRadius, or noRadius for a plain Insert — negative,
// so no squared distance is ever within it and CoveredBy needs no second test.
type cellPoint struct {
	id int32
	p  Point
	r2 float64
}

const noRadius = -1

// NewGrid creates an empty index over bounds with cells×cells resolution.
// cells must be at least 1. For the paper's workloads (radii 0.01–0.05 in the
// unit square) a 64×64 grid keeps candidate sets small; see GridResolution
// for a heuristic.
func NewGrid(bounds Rect, cells int) *Grid {
	if cells < 1 {
		panic(fmt.Sprintf("geo: grid resolution %d < 1", cells))
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		panic(fmt.Sprintf("geo: degenerate grid bounds %+v", bounds))
	}
	return &Grid{
		bounds: bounds,
		cellsX: cells,
		cellsY: cells,
		cellW:  bounds.Width() / float64(cells),
		cellH:  bounds.Height() / float64(cells),
		cells:  make([][]cellPoint, cells*cells),
		pts:    make(map[int32]Point),
	}
}

// GridResolution suggests a grid size for n points with typical query radius
// r inside the unit square: cells sized near the query radius keep the
// scanned area proportional to the disk, capped to avoid pathological memory
// use for tiny radii.
func GridResolution(n int, r float64) int {
	if r <= 0 {
		r = 0.01
	}
	cells := int(math.Ceil(1 / r))
	if byCount := int(math.Ceil(math.Sqrt(float64(n + 1)))); cells > 4*byCount {
		cells = 4 * byCount
	}
	if cells < 1 {
		cells = 1
	}
	if cells > 512 {
		cells = 512
	}
	return cells
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

// Bounds returns the indexed region.
func (g *Grid) Bounds() Rect { return g.bounds }

func (g *Grid) cellOf(p Point) (cx, cy int) {
	p = g.bounds.Clamp(p)
	cx = int((p.X - g.bounds.Min.X) / g.cellW)
	cy = int((p.Y - g.bounds.Min.Y) / g.cellH)
	if cx >= g.cellsX {
		cx = g.cellsX - 1
	}
	if cy >= g.cellsY {
		cy = g.cellsY - 1
	}
	return cx, cy
}

// Insert adds a point with the given ID. Inserting the same ID twice panics:
// IDs are the caller's dense indexes and a duplicate indicates a bug.
func (g *Grid) Insert(id int32, p Point) {
	g.insert(id, p, noRadius)
}

func (g *Grid) insert(id int32, p Point, r2 float64) {
	if _, dup := g.pts[id]; dup {
		panic(fmt.Sprintf("geo: duplicate insert of id %d", id))
	}
	g.pts[id] = p
	cx, cy := g.cellOf(p)
	idx := cy*g.cellsX + cx
	g.cells[idx] = append(g.cells[idx], cellPoint{id: id, p: p, r2: r2})
}

// InsertWithRadius adds a point that owns a disk of radius r (a vendor and
// its advertising range). Points inserted this way participate in CoveredBy
// queries.
func (g *Grid) InsertWithRadius(id int32, p Point, r float64) {
	if r < 0 {
		panic(fmt.Sprintf("geo: negative radius %g for id %d", r, id))
	}
	g.insert(id, p, r*r)
	g.hasRadii = true
	if r > g.maxR {
		g.maxR = r
	}
}

// Point returns the location stored for id and whether it exists.
func (g *Grid) Point(id int32) (Point, bool) {
	p, ok := g.pts[id]
	return p, ok
}

// cellRange returns the inclusive cell-coordinate window intersecting the
// square circumscribing the disk (center, r).
func (g *Grid) cellRange(center Point, r float64) (x0, y0, x1, y1 int) {
	x0, y0 = g.cellOf(Point{center.X - r, center.Y - r})
	x1, y1 = g.cellOf(Point{center.X + r, center.Y + r})
	return x0, y0, x1, y1
}

// Within appends to dst the IDs of indexed points p with Dist(p, center) ≤ r
// and returns the extended slice. Results are in unspecified order; pass a
// reusable dst to avoid allocation on hot paths.
func (g *Grid) Within(dst []int32, center Point, r float64) []int32 {
	if r < 0 {
		return dst
	}
	r2 := r * r
	x0, y0, x1, y1 := g.cellRange(center, r)
	for cy := y0; cy <= y1; cy++ {
		row := cy * g.cellsX
		for cx := x0; cx <= x1; cx++ {
			cell := g.cells[row+cx]
			for i := range cell {
				if cell[i].p.Dist2(center) <= r2 {
					dst = append(dst, cell[i].id)
				}
			}
		}
	}
	return dst
}

// CoveredBy appends to dst the IDs of indexed points whose own disk (as given
// to InsertWithRadius) covers p, and returns the extended slice. Points
// inserted without a radius are never returned.
func (g *Grid) CoveredBy(dst []int32, p Point) []int32 {
	if !g.hasRadii {
		return dst
	}
	// Any covering point is within maxR of p, so scan that window only.
	x0, y0, x1, y1 := g.cellRange(p, g.maxR)
	for cy := y0; cy <= y1; cy++ {
		row := cy * g.cellsX
		for cx := x0; cx <= x1; cx++ {
			cell := g.cells[row+cx]
			for i := range cell {
				if cell[i].p.Dist2(p) <= cell[i].r2 {
					dst = append(dst, cell[i].id)
				}
			}
		}
	}
	return dst
}

// Nearest returns the ID of the indexed point closest to p and its distance.
// The second result is false when the grid is empty. Ties break toward the
// smaller ID so results are deterministic.
func (g *Grid) Nearest(p Point) (int32, float64, bool) {
	if len(g.pts) == 0 {
		return 0, 0, false
	}
	best := int32(-1)
	bestD2 := math.Inf(1)
	// Expand the search ring by ring until a hit is found, then one more
	// ring to be safe (a closer point can sit in the next ring's corner).
	cx, cy := g.cellOf(p)
	maxRing := g.cellsX
	if g.cellsY > maxRing {
		maxRing = g.cellsY
	}
	foundRing := -1
	for ring := 0; ring <= maxRing; ring++ {
		if foundRing >= 0 && ring > foundRing+1 {
			break
		}
		hit := g.scanRing(p, cx, cy, ring, &best, &bestD2)
		if hit && foundRing < 0 {
			foundRing = ring
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, math.Sqrt(bestD2), true
}

// scanRing examines the square ring of cells at Chebyshev distance ring from
// (cx, cy), updating best/bestD2; reports whether any candidate was seen.
func (g *Grid) scanRing(p Point, cx, cy, ring int, best *int32, bestD2 *float64) bool {
	seen := false
	visit := func(x, y int) {
		if x < 0 || x >= g.cellsX || y < 0 || y >= g.cellsY {
			return
		}
		for _, e := range g.cells[y*g.cellsX+x] {
			seen = true
			d2 := e.p.Dist2(p)
			if d2 < *bestD2 || (d2 == *bestD2 && e.id < *best) {
				*best, *bestD2 = e.id, d2
			}
		}
	}
	if ring == 0 {
		visit(cx, cy)
		return seen
	}
	for x := cx - ring; x <= cx+ring; x++ {
		visit(x, cy-ring)
		visit(x, cy+ring)
	}
	for y := cy - ring + 1; y <= cy+ring-1; y++ {
		visit(cx-ring, y)
		visit(cx+ring, y)
	}
	return seen
}

// KNearest returns the IDs of the k points closest to p, ordered by
// increasing distance (ties toward smaller ID). It returns fewer than k IDs
// when the grid holds fewer points. The implementation scans outward by
// rings, stopping once the k-th best distance is closed off by ring geometry.
func (g *Grid) KNearest(p Point, k int) []int32 {
	if k <= 0 || len(g.pts) == 0 {
		return nil
	}
	var cands []distCand
	cx, cy := g.cellOf(p)
	maxRing := g.cellsX
	if g.cellsY > maxRing {
		maxRing = g.cellsY
	}
	cellMin := math.Min(g.cellW, g.cellH)
	for ring := 0; ring <= maxRing; ring++ {
		if len(cands) >= k {
			// A point in a farther ring is at least (ring-1)*cellMin away;
			// stop when that exceeds the current k-th distance.
			kth := kthD2(cands, k)
			if d := float64(ring-1) * cellMin; d > 0 && d*d > kth {
				break
			}
		}
		g.collectRing(p, cx, cy, ring, func(id int32, d2 float64) {
			cands = append(cands, distCand{id, d2})
		})
	}
	sortCands := func(a, b distCand) bool {
		if a.d2 != b.d2 {
			return a.d2 < b.d2
		}
		return a.id < b.id
	}
	// Insertion sort is fine: candidate sets are tiny for grid-scale queries.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && sortCands(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]int32, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}

// distCand pairs a point ID with its squared distance from a query point.
type distCand struct {
	id int32
	d2 float64
}

func kthD2(cands []distCand, k int) float64 {
	// Selection over tiny slices; k is small in every caller.
	worst := math.Inf(-1)
	cnt := 0
	used := make([]bool, len(cands))
	for cnt < k && cnt < len(cands) {
		bi, bd := -1, math.Inf(1)
		for i, c := range cands {
			if !used[i] && c.d2 < bd {
				bi, bd = i, c.d2
			}
		}
		used[bi] = true
		worst = bd
		cnt++
	}
	return worst
}

func (g *Grid) collectRing(p Point, cx, cy, ring int, emit func(int32, float64)) {
	visit := func(x, y int) {
		if x < 0 || x >= g.cellsX || y < 0 || y >= g.cellsY {
			return
		}
		for _, e := range g.cells[y*g.cellsX+x] {
			emit(e.id, e.p.Dist2(p))
		}
	}
	if ring == 0 {
		visit(cx, cy)
		return
	}
	for x := cx - ring; x <= cx+ring; x++ {
		visit(x, cy-ring)
		visit(x, cy+ring)
	}
	for y := cy - ring + 1; y <= cy+ring-1; y++ {
		visit(cx-ring, y)
		visit(cx+ring, y)
	}
}
