package geo

import (
	"fmt"
	"math"
	"sort"
)

// KDTree is a static 2-d tree over a fixed point set — the alternative to
// Grid for the same two range queries (Within, CoveredBy), plus KNearest,
// which only the tree answers. Grids win
// when points are near-uniform in a bounded box (the paper's workloads);
// k-d trees win under heavy clustering or unbounded coordinates, and need no
// resolution parameter. The index ablation benchmarks compare the two.
//
// Build with BuildKDTree; the tree is immutable and safe for concurrent
// readers.
type KDTree struct {
	ids   []int32
	pts   []Point
	radii []float64 // nil when built without radii
	maxR  float64
	// nodes[i] is the root of the subtree over order[lo:hi] stored in
	// recursive median layout; order holds permutation indices into pts.
	order []int
}

// BuildKDTree builds a tree over parallel id/point slices.
func BuildKDTree(ids []int32, pts []Point) *KDTree {
	return buildKD(ids, pts, nil)
}

// BuildKDTreeWithRadii builds a tree whose points own disks (vendors), so
// CoveredBy queries are answered. radii must parallel pts; negative radii
// panic.
func BuildKDTreeWithRadii(ids []int32, pts []Point, radii []float64) *KDTree {
	if len(radii) != len(pts) {
		panic(fmt.Sprintf("geo: %d radii for %d points", len(radii), len(pts)))
	}
	for i, r := range radii {
		if r < 0 || math.IsNaN(r) {
			panic(fmt.Sprintf("geo: radius %g at %d", r, i))
		}
	}
	return buildKD(ids, pts, radii)
}

func buildKD(ids []int32, pts []Point, radii []float64) *KDTree {
	if len(ids) != len(pts) {
		panic(fmt.Sprintf("geo: %d ids for %d points", len(ids), len(pts)))
	}
	t := &KDTree{
		ids:   append([]int32(nil), ids...),
		pts:   append([]Point(nil), pts...),
		order: make([]int, len(pts)),
	}
	if radii != nil {
		t.radii = append([]float64(nil), radii...)
		for _, r := range radii {
			if r > t.maxR {
				t.maxR = r
			}
		}
	}
	for i := range t.order {
		t.order[i] = i
	}
	t.build(0, len(t.order), 0)
	return t
}

// build arranges order[lo:hi] so the median by the split axis sits at the
// midpoint, recursively — an implicit balanced tree.
func (t *KDTree) build(lo, hi, depth int) {
	if hi-lo <= 1 {
		return
	}
	mid := (lo + hi) / 2
	axis := depth % 2
	seg := t.order[lo:hi]
	sort.Slice(seg, func(a, b int) bool {
		pa, pb := t.pts[seg[a]], t.pts[seg[b]]
		if axis == 0 {
			if pa.X != pb.X {
				return pa.X < pb.X
			}
			return pa.Y < pb.Y
		}
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		return pa.X < pb.X
	})
	t.build(lo, mid, depth+1)
	t.build(mid+1, hi, depth+1)
}

// Len returns the number of indexed points.
func (t *KDTree) Len() int { return len(t.pts) }

// Within appends the IDs of points within the closed disk (center, r) to
// dst.
func (t *KDTree) Within(dst []int32, center Point, r float64) []int32 {
	if r < 0 || len(t.pts) == 0 {
		return dst
	}
	return t.within(dst, center, r*r, r, 0, len(t.order), 0)
}

func (t *KDTree) within(dst []int32, c Point, r2, r float64, lo, hi, depth int) []int32 {
	if hi <= lo {
		return dst
	}
	mid := (lo + hi) / 2
	idx := t.order[mid]
	p := t.pts[idx]
	if p.Dist2(c) <= r2 {
		dst = append(dst, t.ids[idx])
	}
	axis := depth % 2
	var coord, qc float64
	if axis == 0 {
		coord, qc = p.X, c.X
	} else {
		coord, qc = p.Y, c.Y
	}
	if qc-r <= coord {
		dst = t.within(dst, c, r2, r, lo, mid, depth+1)
	}
	if qc+r >= coord {
		dst = t.within(dst, c, r2, r, mid+1, hi, depth+1)
	}
	return dst
}

// CoveredBy appends the IDs of radius-bearing points whose disks cover p.
// Trees built without radii return dst unchanged.
func (t *KDTree) CoveredBy(dst []int32, p Point) []int32 {
	if t.radii == nil || len(t.pts) == 0 {
		return dst
	}
	// Any covering point lies within maxR of p; search that disk, filter by
	// each point's own radius.
	var cands []int32
	cands = t.Within(cands, p, t.maxR)
	for _, id := range cands {
		// ids may not be dense; find the point via linear map-back. Keep a
		// reverse index only if ids are dense 0..n-1 (the common case).
		i := t.indexOf(id)
		if t.pts[i].Dist2(p) <= t.radii[i]*t.radii[i] {
			dst = append(dst, id)
		}
	}
	return dst
}

// indexOf maps an id back to its slot. Dense 0..n-1 ids hit the O(1) fast
// path used by every caller in this repository.
func (t *KDTree) indexOf(id int32) int {
	if int(id) < len(t.ids) && t.ids[id] == id {
		return int(id)
	}
	for i, v := range t.ids {
		if v == id {
			return i
		}
	}
	panic(fmt.Sprintf("geo: id %d not in tree", id))
}

// KNearest returns up to k IDs ordered by increasing distance from p (ties
// toward smaller ID).
func (t *KDTree) KNearest(p Point, k int) []int32 {
	if k <= 0 || len(t.pts) == 0 {
		return nil
	}
	h := &kdHeap{}
	t.knn(p, k, h, 0, len(t.order), 0)
	// Extract in increasing order.
	out := make([]int32, len(h.items))
	for i := len(h.items) - 1; i >= 0; i-- {
		out[i] = h.pop().id
	}
	return out
}

func (t *KDTree) knn(p Point, k int, h *kdHeap, lo, hi, depth int) {
	if hi <= lo {
		return
	}
	mid := (lo + hi) / 2
	idx := t.order[mid]
	pt := t.pts[idx]
	h.offer(t.ids[idx], pt.Dist2(p), k)
	axis := depth % 2
	var coord, qc float64
	if axis == 0 {
		coord, qc = pt.X, p.X
	} else {
		coord, qc = pt.Y, p.Y
	}
	var near, far [2]int // [lo, hi) ranges
	if qc <= coord {
		near = [2]int{lo, mid}
		far = [2]int{mid + 1, hi}
	} else {
		near = [2]int{mid + 1, hi}
		far = [2]int{lo, mid}
	}
	t.knn(p, k, h, near[0], near[1], depth+1)
	// Visit the far side only if the splitting plane is closer than the
	// current k-th distance (or the heap is not yet full).
	d := qc - coord
	if len(h.items) < k || d*d <= h.worst() {
		t.knn(p, k, h, far[0], far[1], depth+1)
	}
}

// kdHeap is a bounded max-heap by distance (ties by larger id at the top so
// smaller ids win on eviction).
type kdHeap struct {
	items []kdHeapItem
}

type kdHeapItem struct {
	id int32
	d2 float64
}

func (h *kdHeap) less(a, b int) bool {
	// Max-heap order: larger distance (then larger id) floats to the root.
	if h.items[a].d2 != h.items[b].d2 {
		return h.items[a].d2 > h.items[b].d2
	}
	return h.items[a].id > h.items[b].id
}

func (h *kdHeap) worst() float64 { return h.items[0].d2 }

func (h *kdHeap) offer(id int32, d2 float64, k int) {
	if len(h.items) < k {
		h.items = append(h.items, kdHeapItem{id, d2})
		h.up(len(h.items) - 1)
		return
	}
	root := h.items[0]
	if d2 > root.d2 || (d2 == root.d2 && id > root.id) {
		return
	}
	h.items[0] = kdHeapItem{id, d2}
	h.down(0)
}

func (h *kdHeap) pop() kdHeapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

func (h *kdHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *kdHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}
