package geo

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
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
// Storage is row runs + offsets: each grid row is one slice of points — id,
// location and squared radius inline — grouped by cell, cells ascending,
// insertion order within a cell, and a flat offset table says where each cell
// starts in its row. A cell window is therefore one contiguous run per row:
// Within and CoveredBy scan it front to back, emitting ids in (row, cell,
// insertion) order, and touch no per-cell slice header and no map. Insert is
// an append to the point's row, O(1) however crowded the row; the first query
// after it regroups each row appended to — one stable counting sort by cell,
// O(row) — so a bulk build groups every row once and a registration between
// queries costs one row. The id → location map serves only Point, Len and the
// duplicate check.
//
// The zero value is not usable; construct with NewGrid. Grid is safe for
// concurrent readers once built (the regrouping a first query does is
// serialised); Insert must not race with queries.
type Grid struct {
	bounds   Rect
	cellsX   int
	cellsY   int
	cellW    float64
	cellH    float64
	rows     [][]cellPoint // per grid row: points grouped by cell, cells ascending, then the appends since
	off      []int32       // off[cy*(cellsX+1)+cx]: where cell cx starts in rows[cy]; entry cellsX is the grouped length
	dirty    atomic.Bool   // some row has been appended to since it was grouped
	regroup  sync.Mutex    // serialises settle among concurrent readers
	scratch  []cellPoint   // settle's copy of the row it is regrouping
	pts      map[int32]Point
	maxR     float64 // largest per-point radius seen by InsertWithRadius
	hasRadii bool
}

// cellPoint is one indexed point as its row stores it. cx is its cell within
// the row (it fills what would be padding: the struct stays 32 bytes). r2 is
// the squared radius given to InsertWithRadius, or noRadius for a plain Insert
// — negative, so no squared distance is ever within it and CoveredBy needs no
// second test.
type cellPoint struct {
	id, cx int32
	p      Point
	r2     float64
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
		rows:   make([][]cellPoint, cells),
		off:    make([]int32, cells*(cells+1)),
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
	g.rows[cy] = append(g.rows[cy], cellPoint{id: id, cx: int32(cx), p: p, r2: r2})
	g.dirty.Store(true)
}

// settle groups every row appended to since its last grouping — its offsets
// then end short of its length; each query calls it before reading rows or
// offsets. The counting sort is stable, so a cell keeps insertion order.
func (g *Grid) settle() {
	if !g.dirty.Load() {
		return
	}
	g.regroup.Lock()
	defer g.regroup.Unlock()
	for cy, row := range g.rows {
		off := g.rowOff(cy)
		if int(off[g.cellsX]) == len(row) {
			continue
		}
		clear(off)
		for i := range row {
			off[row[i].cx+1]++
		}
		for cx := 1; cx < len(off); cx++ {
			off[cx] += off[cx-1]
		}
		// off[cx] is cell cx's start and serves as its write cursor, which
		// leaves it at the cell's end — the next cell's start — so shift back.
		g.scratch = append(g.scratch[:0], row...)
		for _, e := range g.scratch {
			row[off[e.cx]] = e
			off[e.cx]++
		}
		copy(off[1:], off)
		off[0] = 0
	}
	g.dirty.Store(false)
}

// rowOff returns row cy's cellsX+1 cell offsets into rows[cy].
func (g *Grid) rowOff(cy int) []int32 {
	return g.off[cy*(g.cellsX+1):][:g.cellsX+1]
}

// run returns the points of cells x0..x1 of row cy: one contiguous slice, in
// cell then insertion order.
func (g *Grid) run(cy, x0, x1 int) []cellPoint {
	off := g.rowOff(cy)
	return g.rows[cy][off[x0]:off[x1+1]]
}

// cell returns the points of cell (cx, cy) in insertion order.
func (g *Grid) cell(cx, cy int) []cellPoint { return g.run(cy, cx, cx) }

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
	g.settle()
	r2 := r * r
	x0, y0, x1, y1 := g.cellRange(center, r)
	for cy := y0; cy <= y1; cy++ {
		run := g.run(cy, x0, x1)
		for i := range run {
			if run[i].p.Dist2(center) <= r2 {
				dst = append(dst, run[i].id)
			}
		}
	}
	return dst
}

// CoveredBy appends to dst the IDs of indexed points whose own disk (as given
// to InsertWithRadius) covers p, and returns the extended slice. Points
// inserted without a radius are never returned.
//
// dst[:len(dst)] is left as given, but CoveredBy may scribble past the
// returned length inside the returned slice's capacity: every scanned id is
// written to spare capacity and the length advances only past a hit, so the
// serving probe's loop carries no branch on the hit test (which a crowded
// window mispredicts three times in ten). Pass a scratch buffer, not a
// window onto an array whose tail is live.
func (g *Grid) CoveredBy(dst []int32, p Point) []int32 {
	if !g.hasRadii {
		return dst
	}
	g.settle()
	// Any covering point is within maxR of p, so scan that window only.
	x0, y0, x1, y1 := g.cellRange(p, g.maxR)
	for cy := y0; cy <= y1; cy++ {
		run := g.run(cy, x0, x1)
		n := len(dst)
		dst = slices.Grow(dst, len(run))[:n+len(run)]
		for i := range run {
			dst[n] = run[i].id
			if run[i].p.Dist2(p) <= run[i].r2 {
				n++
			}
		}
		dst = dst[:n]
	}
	return dst
}

// Nearest returns the ID of the indexed point closest to p and its distance.
// The second result is false when the grid is empty. Ties break toward the
// smaller ID so results are deterministic.
func (g *Grid) Nearest(p Point) (int32, float64, bool) {
	ids := g.KNearest(p, 1)
	if len(ids) == 0 {
		return 0, 0, false
	}
	return ids[0], math.Sqrt(g.pts[ids[0]].Dist2(p)), true
}

// KNearest returns the IDs of the k points closest to p, ordered by
// increasing distance (ties toward smaller ID). It returns fewer than k IDs
// when the grid holds fewer points. The implementation scans outward by
// rings, stopping once the k-th best distance is closed off by ring geometry.
func (g *Grid) KNearest(p Point, k int) []int32 {
	if k <= 0 || len(g.pts) == 0 {
		return nil
	}
	g.settle()
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
		for _, e := range g.cell(x, y) {
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
