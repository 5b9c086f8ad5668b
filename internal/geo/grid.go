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
// queries costs one row.
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
	maxR     float64       // largest per-point radius seen by InsertWithRadius
	hasRadii bool
	rowLo    int // rows[rowLo..rowHi] hold every point; cellsY, -1 while empty
	rowHi    int
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
		rowLo:  cells,
		rowHi:  -1,
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

func (g *Grid) cellOf(p Point) (cx, cy int) {
	return axisCell(p.X, g.bounds.Min.X, g.bounds.Max.X, g.cellW, g.cellsX),
		axisCell(p.Y, g.bounds.Min.Y, g.bounds.Max.Y, g.cellH, g.cellsY)
}

// axisCell is the index of the cell holding v along one axis of cells cells
// of width w from lo: v is clamped into [lo, hi] first, so every value maps
// somewhere. Grid.cellOf and Stripes share it, so a stripe's band edges fall
// on exactly the grid's cell rows. The clamp is taken as a float (a NaN too
// lands in cell 0): converting one outside int's range is
// implementation-defined.
func axisCell(v, lo, hi, w float64, cells int) int {
	if !(v > lo) {
		return 0
	}
	return min(int((min(v, hi)-lo)/w), cells-1)
}

// Insert adds a point with the given ID, the caller's index of it; each ID is
// inserted once.
func (g *Grid) Insert(id int32, p Point) {
	g.insert(id, p, noRadius)
}

func (g *Grid) insert(id int32, p Point, r2 float64) {
	cx, cy := g.cellOf(p)
	g.rows[cy] = append(g.rows[cy], cellPoint{id: id, cx: int32(cx), p: p, r2: r2})
	g.rowLo, g.rowHi = min(g.rowLo, cy), max(g.rowHi, cy)
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

// AppendIDs appends every indexed id to dst in scan order — by row, then cell,
// then insertion — the order Within and CoveredBy emit a window in, and
// returns the extended slice.
func (g *Grid) AppendIDs(dst []int32) []int32 {
	g.settle()
	for _, row := range g.rows {
		for i := range row {
			dst = append(dst, row[i].id)
		}
	}
	return dst
}

// cellRange returns the inclusive cell-coordinate window intersecting the
// square circumscribing the disk (center, r), its rows clipped to those that
// hold points — a stripe's grid holds only its band — so y0 > y1 when none
// does.
func (g *Grid) cellRange(center Point, r float64) (x0, y0, x1, y1 int) {
	x0, y0 = g.cellOf(Point{center.X - r, center.Y - r})
	x1, y1 = g.cellOf(Point{center.X + r, center.Y + r})
	return x0, max(y0, g.rowLo), x1, min(y1, g.rowHi)
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
