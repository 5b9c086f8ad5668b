package geo

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func randomPoints(r *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{r.Float64(), r.Float64()}
	}
	return pts
}

func buildGrid(pts []Point, cells int) *Grid {
	g := NewGrid(UnitSquare, cells)
	for i, p := range pts {
		g.Insert(int32(i), p)
	}
	return g
}

func bruteWithin(pts []Point, c Point, r float64) []int32 {
	var out []int32
	for i, p := range pts {
		if p.Dist2(c) <= r*r {
			out = append(out, int32(i))
		}
	}
	return out
}

func sortIDs(ids []int32) []int32 {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGridWithinMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 10, 200, 1000} {
		for _, cells := range []int{1, 4, 32, 100} {
			pts := randomPoints(r, n)
			g := buildGrid(pts, cells)
			for trial := 0; trial < 25; trial++ {
				c := Point{r.Float64(), r.Float64()}
				radius := r.Float64() * 0.3
				got := sortIDs(g.Within(nil, c, radius))
				want := sortIDs(bruteWithin(pts, c, radius))
				if !equalIDs(got, want) {
					t.Fatalf("n=%d cells=%d Within(%v, %g): got %v want %v", n, cells, c, radius, got, want)
				}
			}
		}
	}
}

func TestGridWithinNegativeRadius(t *testing.T) {
	g := buildGrid([]Point{{0.5, 0.5}}, 8)
	if got := g.Within(nil, Point{0.5, 0.5}, -1); len(got) != 0 {
		t.Errorf("negative radius should match nothing, got %v", got)
	}
}

func TestGridWithinReusesDst(t *testing.T) {
	g := buildGrid([]Point{{0.5, 0.5}, {0.9, 0.9}}, 8)
	dst := make([]int32, 0, 4)
	dst = append(dst, 99)
	got := g.Within(dst, Point{0.5, 0.5}, 0.01)
	if len(got) != 2 || got[0] != 99 || got[1] != 0 {
		t.Errorf("Within must append to dst, got %v", got)
	}
}

func TestGridCoveredByMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 50, 500} {
		pts := randomPoints(r, n)
		radii := make([]float64, n)
		g := NewGrid(UnitSquare, 32)
		for i, p := range pts {
			radii[i] = r.Float64() * 0.1
			g.InsertWithRadius(int32(i), p, radii[i])
		}
		for trial := 0; trial < 25; trial++ {
			q := Point{r.Float64(), r.Float64()}
			var want []int32
			for i, p := range pts {
				if p.Dist2(q) <= radii[i]*radii[i] {
					want = append(want, int32(i))
				}
			}
			got := sortIDs(g.CoveredBy(nil, q))
			if !equalIDs(got, sortIDs(want)) {
				t.Fatalf("n=%d CoveredBy(%v): got %v want %v", n, q, got, want)
			}
		}
	}
}

func TestGridCoveredByIgnoresRadiusless(t *testing.T) {
	g := NewGrid(UnitSquare, 8)
	g.Insert(0, Point{0.5, 0.5})                  // no radius: never covers
	g.InsertWithRadius(1, Point{0.5, 0.5}, 0.2)   // covers nearby queries
	g.InsertWithRadius(2, Point{0.9, 0.9}, 0.001) // too far
	got := sortIDs(g.CoveredBy(nil, Point{0.55, 0.5}))
	if !equalIDs(got, []int32{1}) {
		t.Errorf("CoveredBy = %v, want [1]", got)
	}
}

func TestGridNearest(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 17, 300} {
		pts := randomPoints(r, n)
		g := buildGrid(pts, 16)
		for trial := 0; trial < 40; trial++ {
			q := Point{r.Float64(), r.Float64()}
			id, d, ok := g.Nearest(q)
			if !ok {
				t.Fatalf("Nearest on non-empty grid reported no result")
			}
			bestD := math.Inf(1)
			for _, p := range pts {
				if dd := p.Dist(q); dd < bestD {
					bestD = dd
				}
			}
			if math.Abs(d-bestD) > 1e-9 {
				t.Fatalf("n=%d Nearest(%v) id=%d d=%g, brute force d=%g", n, q, id, d, bestD)
			}
			if got := pts[id].Dist(q); math.Abs(got-bestD) > 1e-9 {
				t.Fatalf("Nearest returned id %d at distance %g, want %g", id, got, bestD)
			}
		}
	}
}

func TestGridNearestEmpty(t *testing.T) {
	g := NewGrid(UnitSquare, 4)
	if _, _, ok := g.Nearest(Point{0.5, 0.5}); ok {
		t.Error("Nearest on empty grid must report !ok")
	}
}

func TestGridKNearestMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randomPoints(r, 120)
	g := buildGrid(pts, 16)
	for trial := 0; trial < 30; trial++ {
		q := Point{r.Float64(), r.Float64()}
		for _, k := range []int{1, 3, 7, 120, 500} {
			got := g.KNearest(q, k)
			wantLen := min(k, len(pts))
			want := bruteNearest(pts, q)[:wantLen]
			if len(got) != wantLen {
				t.Fatalf("k=%d: got %d ids, want %d", k, len(got), wantLen)
			}
			for i := range got {
				// Compare by distance (ids may legitimately differ on exact ties).
				dg := pts[got[i]].Dist2(q)
				dw := pts[want[i]].Dist2(q)
				if math.Abs(dg-dw) > 1e-12 {
					t.Fatalf("k=%d pos=%d: got id %d (d2=%g) want id %d (d2=%g)", k, i, got[i], dg, want[i], dw)
				}
			}
		}
	}
}

func TestGridKNearestDegenerate(t *testing.T) {
	g := NewGrid(UnitSquare, 4)
	if got := g.KNearest(Point{0.5, 0.5}, 3); got != nil {
		t.Errorf("KNearest on empty grid = %v, want nil", got)
	}
	g.Insert(0, Point{0.1, 0.1})
	if got := g.KNearest(Point{0.5, 0.5}, 0); got != nil {
		t.Errorf("KNearest k=0 = %v, want nil", got)
	}
}

func TestGridDuplicateInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Insert must panic")
		}
	}()
	g := NewGrid(UnitSquare, 4)
	g.Insert(1, Point{0.1, 0.1})
	g.Insert(1, Point{0.2, 0.2})
}

func TestNewGridValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("zero cells", func() { NewGrid(UnitSquare, 0) })
	mustPanic("degenerate bounds", func() { NewGrid(Rect{Point{0, 0}, Point{0, 1}}, 4) })
	mustPanic("negative radius", func() {
		g := NewGrid(UnitSquare, 4)
		g.InsertWithRadius(0, Point{0.5, 0.5}, -0.1)
	})
}

func TestGridResolution(t *testing.T) {
	if got := GridResolution(1000, 0.02); got < 1 || got > 512 {
		t.Errorf("GridResolution out of bounds: %d", got)
	}
	if got := GridResolution(10, 0); got < 1 {
		t.Errorf("GridResolution with zero radius = %d", got)
	}
	if got := GridResolution(4, 1e-9); got > 512 {
		t.Errorf("GridResolution must cap at 512, got %d", got)
	}
}

func TestGridPointLookup(t *testing.T) {
	g := buildGrid([]Point{{0.25, 0.75}}, 4)
	if p, ok := g.Point(0); !ok || p != (Point{0.25, 0.75}) {
		t.Errorf("Point(0) = %v,%v", p, ok)
	}
	if _, ok := g.Point(42); ok {
		t.Error("Point on unknown id must report !ok")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
	if g.Bounds() != UnitSquare {
		t.Errorf("Bounds = %v", g.Bounds())
	}
}

func TestGridQueryOutsideBounds(t *testing.T) {
	// Queries outside the indexed region must not panic and must still find
	// in-bounds points within range.
	g := buildGrid([]Point{{0.01, 0.01}}, 8)
	got := g.Within(nil, Point{-0.05, -0.05}, 0.2)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("out-of-bounds query missed in-range point: %v", got)
	}
}

// mapGrid is the grid's pre-inline layout — ids per cell, locations and radii
// in maps — with the scans written as they were. It is the order oracle: a
// query must emit the same ids in the same sequence (cells row-major,
// insertion order within a cell).
type mapGrid struct {
	g     *Grid // cell geometry only
	cells [][]int32
	pts   map[int32]Point
	radii map[int32]float64
}

func newMapGrid(g *Grid) *mapGrid {
	return &mapGrid{g: g, cells: make([][]int32, g.cellsX*g.cellsY),
		pts: map[int32]Point{}, radii: map[int32]float64{}}
}

func (m *mapGrid) insert(id int32, p Point) {
	m.pts[id] = p
	cx, cy := m.g.cellOf(p)
	m.cells[cy*m.g.cellsX+cx] = append(m.cells[cy*m.g.cellsX+cx], id)
}

func (m *mapGrid) scan(center Point, r float64, hit func(id int32) bool) []int32 {
	var out []int32
	x0, y0, x1, y1 := m.g.cellRange(center, r)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, id := range m.cells[cy*m.g.cellsX+cx] {
				if hit(id) {
					out = append(out, id)
				}
			}
		}
	}
	return out
}

func (m *mapGrid) within(center Point, r float64) []int32 {
	return m.scan(center, r, func(id int32) bool { return m.pts[id].Dist2(center) <= r*r })
}

func (m *mapGrid) coveredBy(p Point, maxR float64) []int32 {
	return m.scan(p, maxR, func(id int32) bool {
		r, ok := m.radii[id]
		return ok && m.pts[id].Dist2(p) <= r*r
	})
}

// checkLayout asserts the row-run invariants a query relies on once it has
// settled the grid: each row's offsets start at 0, never decrease and end at
// the row's length, every point sits in the run of the cell it maps to, and
// the rows together hold Len() points.
func checkLayout(t *testing.T, g *Grid) {
	t.Helper()
	g.settle()
	total := 0
	for cy, row := range g.rows {
		off := g.rowOff(cy)
		if off[0] != 0 || int(off[g.cellsX]) != len(row) {
			t.Fatalf("row %d: offsets run %d..%d over %d points", cy, off[0], off[g.cellsX], len(row))
		}
		for cx := 0; cx < g.cellsX; cx++ {
			if off[cx] > off[cx+1] {
				t.Fatalf("row %d: offset of cell %d (%d) past cell %d's (%d)", cy, cx, off[cx], cx+1, off[cx+1])
			}
			for _, e := range g.cell(cx, cy) {
				if x, y := g.cellOf(e.p); x != cx || y != cy {
					t.Fatalf("id %d of cell (%d, %d) is stored in cell (%d, %d)", e.id, x, y, cx, cy)
				}
			}
		}
		total += len(row)
	}
	if total != g.Len() {
		t.Fatalf("rows hold %d points, Len() = %d", total, g.Len())
	}
}

// bruteNearest ranks ids by (squared distance to q, id), the order Nearest
// and KNearest promise.
func bruteNearest(pts []Point, q Point) []int32 {
	ids := make([]int32, len(pts))
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := pts[ids[a]].Dist2(q), pts[ids[b]].Dist2(q)
		if da != db {
			return da < db
		}
		return ids[a] < ids[b]
	})
	return ids
}

// Row runs answer exactly as the map-backed layout did, element for element:
// random grids mixing radius-less points, radius 0, points on the bounds and
// outside them, queried on stored points (distance 0 and exact boundary hits)
// as well as at random — between inserts, singly and in bursts, as the broker
// registers campaigns while it serves (so a regrouping finds one appended
// point in one row, or several across rows), and then at length on the full
// grid. The nearest-point queries are held to brute force on the same grids.
func TestGridQueriesKeepMapLayoutOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	edge := []float64{0, 1, 0.5, -0.1, 1.1}
	for _, cells := range []int{1, 7, 64} {
		g := NewGrid(UnitSquare, cells)
		m := newMapGrid(g)
		var pts []Point
		maxR := 0.0
		query := func(trial int) {
			q := Point{rng.Float64()*1.2 - 0.1, rng.Float64()*1.2 - 0.1}
			if trial%4 == 0 {
				q = pts[rng.Intn(len(pts))]
			}
			if got, want := g.CoveredBy(nil, q), m.coveredBy(q, maxR); !equalIDs(got, want) {
				t.Fatalf("cells=%d n=%d CoveredBy(%v) = %v, map layout %v", cells, len(pts), q, got, want)
			}
			r := rng.Float64() * 0.3
			if trial%8 == 0 {
				r = q.Dist(pts[rng.Intn(len(pts))]) // a stored point exactly on the rim
			}
			if got, want := g.Within(nil, q, r), m.within(q, r); !equalIDs(got, want) {
				t.Fatalf("cells=%d n=%d Within(%v, %g) = %v, map layout %v", cells, len(pts), q, r, got, want)
			}
			want := bruteNearest(pts, q)
			if id, d, ok := g.Nearest(q); !ok || id != want[0] || d != math.Sqrt(pts[id].Dist2(q)) {
				t.Fatalf("cells=%d n=%d Nearest(%v) = %d, %g, %v; brute force %d", cells, len(pts), q, id, d, ok, want[0])
			}
			k := 1 + rng.Intn(12)
			if got := g.KNearest(q, k); !equalIDs(got, want[:min(k, len(want))]) {
				t.Fatalf("cells=%d n=%d KNearest(%v, %d) = %v, brute force %v", cells, len(pts), q, k, got, want[:min(k, len(want))])
			}
		}
		for id := int32(0); id < 600; id++ {
			p := Point{rng.Float64(), rng.Float64()}
			if id%9 == 0 {
				p = Point{edge[rng.Intn(len(edge))], edge[rng.Intn(len(edge))]}
			}
			pts = append(pts, p)
			m.insert(id, p)
			switch id % 5 {
			case 0:
				g.Insert(id, p)
			case 1:
				m.radii[id] = 0
				g.InsertWithRadius(id, p, 0)
			default:
				m.radii[id] = rng.Float64() * 0.15
				g.InsertWithRadius(id, p, m.radii[id])
				maxR = math.Max(maxR, m.radii[id])
			}
			if id%16 < 10 || id%16 == 15 { // ten single inserts, then a burst of six
				checkLayout(t, g)
				query(int(id))
			}
		}
		for trial := 0; trial < 400; trial++ {
			query(trial)
		}
	}
}

// CoveredBy writes scanned ids into dst's spare capacity before it knows
// whether they hit; what the caller already had in dst must survive that,
// with room to spare and without, and a warmed scratch buffer must make the
// probe allocation-free.
func TestGridCoveredByScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	g := NewGrid(UnitSquare, 16)
	for id := int32(0); id < 400; id++ {
		g.InsertWithRadius(id, Point{rng.Float64(), rng.Float64()}, 0.05+rng.Float64()*0.1)
	}
	q := Point{0.4, 0.6}
	want := g.CoveredBy(nil, q)
	if len(want) == 0 {
		t.Fatal("probe covers nothing: the case tests nothing")
	}
	held := []int32{-7, -8, -9}
	for _, spare := range []int{0, 1, 4096} {
		dst := append(make([]int32, 0, len(held)+spare), held...)
		got := g.CoveredBy(dst, q)
		if !equalIDs(got[:len(held)], held) || !equalIDs(got[len(held):], want) {
			t.Errorf("spare %d: CoveredBy(%v, q) = %v, want %v then %v", spare, held, got, held, want)
		}
	}
	var dst []int32
	probe := func() { dst = g.CoveredBy(dst[:0], q) }
	probe()
	if avg := testing.AllocsPerRun(100, probe); avg != 0 {
		t.Errorf("warmed CoveredBy allocates %.1f/op, want 0", avg)
	}
}

// The first query after a build regroups the rows; core.Recon issues its
// first queries from several workers at once, so that must be safe (run under
// -race) and every reader must see the grouped rows.
func TestGridFirstQueriesMayBeConcurrent(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(34)), 2000)
	g := buildGrid(pts, 16)
	want := buildGrid(pts, 16).Within(nil, Point{0.5, 0.5}, 0.3)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if got := g.Within(nil, Point{0.5, 0.5}, 0.3); !equalIDs(got, want) {
				t.Errorf("concurrent first Within = %d ids, serial %d", len(got), len(want))
			}
		}()
	}
	close(start)
	wg.Wait()
}

func TestGridDuplicateInsertWithRadiusPanics(t *testing.T) {
	for name, second := range map[string]func(*Grid){
		"radius then radius": func(g *Grid) { g.InsertWithRadius(1, Point{0.2, 0.2}, 0.1) },
		"radius then plain":  func(g *Grid) { g.Insert(1, Point{0.2, 0.2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: duplicate id must panic", name)
				}
			}()
			g := NewGrid(UnitSquare, 4)
			g.InsertWithRadius(1, Point{0.1, 0.1}, 0.1)
			second(g)
		}()
	}
}

// BenchmarkGridCoveredByDense probes the dense-market grid: 8 192 campaigns
// in the unit square at twice the default radii (≈260 covering a point).
func BenchmarkGridCoveredByDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewGrid(UnitSquare, 64)
	for id := int32(0); id < 8192; id++ {
		g.InsertWithRadius(id, Point{rng.Float64(), rng.Float64()}, 0.04+rng.Float64()*0.12)
	}
	probes := randomPoints(rng, 1024)
	var ids []int32
	candidates := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids = g.CoveredBy(ids[:0], probes[i%len(probes)])
		candidates += len(ids)
	}
	b.ReportMetric(float64(candidates)/float64(b.N), "candidates/op")
}
