package geo

import (
	"math"
	"math/rand"
	"testing"
)

func buildBoth(pts []Point, radii []float64) (*Grid, *KDTree) {
	ids := make([]int32, len(pts))
	for i := range ids {
		ids[i] = int32(i)
	}
	g := NewGrid(UnitSquare, 16)
	var t *KDTree
	if radii == nil {
		for i, p := range pts {
			g.Insert(int32(i), p)
		}
		t = BuildKDTree(ids, pts)
	} else {
		for i, p := range pts {
			g.InsertWithRadius(int32(i), p, radii[i])
		}
		t = BuildKDTreeWithRadii(ids, pts, radii)
	}
	return g, t
}

func TestKDTreeWithinMatchesGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 7, 100, 800} {
		pts := randomPoints(rng, n)
		g, kd := buildBoth(pts, nil)
		for trial := 0; trial < 30; trial++ {
			c := Point{X: rng.Float64(), Y: rng.Float64()}
			r := rng.Float64() * 0.3
			want := sortIDs(g.Within(nil, c, r))
			got := sortIDs(kd.Within(nil, c, r))
			if !equalIDs(got, want) {
				t.Fatalf("n=%d Within(%v, %g): kd %v vs grid %v", n, c, r, got, want)
			}
		}
	}
}

func TestKDTreeWithinNegativeRadius(t *testing.T) {
	_, kd := buildBoth([]Point{{X: 0.5, Y: 0.5}}, nil)
	if got := kd.Within(nil, Point{X: 0.5, Y: 0.5}, -1); len(got) != 0 {
		t.Errorf("negative radius matched %v", got)
	}
}

func TestKDTreeCoveredByMatchesGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{0, 1, 50, 400} {
		pts := randomPoints(rng, n)
		radii := make([]float64, n)
		for i := range radii {
			radii[i] = rng.Float64() * 0.1
		}
		g, kd := buildBoth(pts, radii)
		for trial := 0; trial < 30; trial++ {
			q := Point{X: rng.Float64(), Y: rng.Float64()}
			want := sortIDs(g.CoveredBy(nil, q))
			got := sortIDs(kd.CoveredBy(nil, q))
			if !equalIDs(got, want) {
				t.Fatalf("n=%d CoveredBy(%v): kd %v vs grid %v", n, q, got, want)
			}
		}
	}
}

func TestKDTreeCoveredByWithoutRadii(t *testing.T) {
	_, kd := buildBoth([]Point{{X: 0.5, Y: 0.5}}, nil)
	if got := kd.CoveredBy(nil, Point{X: 0.5, Y: 0.5}); len(got) != 0 {
		t.Errorf("radius-less tree answered CoveredBy: %v", got)
	}
}

func TestKDTreeKNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := randomPoints(rng, 150)
	_, kd := buildBoth(pts, nil)
	for trial := 0; trial < 40; trial++ {
		q := Point{X: rng.Float64(), Y: rng.Float64()}
		for _, k := range []int{1, 2, 5, 150, 999} {
			got := kd.KNearest(q, k)
			wantLen := k
			if wantLen > len(pts) {
				wantLen = len(pts)
			}
			if len(got) != wantLen {
				t.Fatalf("k=%d: %d results, want %d", k, len(got), wantLen)
			}
			// Distances must be sorted and match the brute-force k-th set.
			var all []float64
			for _, p := range pts {
				all = append(all, p.Dist2(q))
			}
			// Simple selection of the wantLen smallest distances.
			for i := 0; i < wantLen; i++ {
				minIdx := i
				for j := i + 1; j < len(all); j++ {
					if all[j] < all[minIdx] {
						minIdx = j
					}
				}
				all[i], all[minIdx] = all[minIdx], all[i]
			}
			prev := -1.0
			for i, id := range got {
				d2 := pts[id].Dist2(q)
				if d2 < prev {
					t.Fatalf("k=%d: results not distance-sorted", k)
				}
				prev = d2
				if math.Abs(d2-all[i]) > 1e-12 {
					t.Fatalf("k=%d pos=%d: kd distance %g, brute %g", k, i, d2, all[i])
				}
			}
		}
	}
}

func TestKDTreeKNearestDegenerate(t *testing.T) {
	kd := BuildKDTree(nil, nil)
	if got := kd.KNearest(Point{X: 0.5, Y: 0.5}, 3); got != nil {
		t.Errorf("empty tree KNearest = %v", got)
	}
	kd = BuildKDTree([]int32{0}, []Point{{X: 0.1, Y: 0.1}})
	if got := kd.KNearest(Point{X: 0.5, Y: 0.5}, 0); got != nil {
		t.Errorf("k=0 KNearest = %v", got)
	}
	if kd.Len() != 1 {
		t.Errorf("Len = %d", kd.Len())
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	pts := []Point{{X: 0.5, Y: 0.5}, {X: 0.5, Y: 0.5}, {X: 0.5, Y: 0.5}, {X: 0.9, Y: 0.9}}
	kd := BuildKDTree([]int32{0, 1, 2, 3}, pts)
	got := sortIDs(kd.Within(nil, Point{X: 0.5, Y: 0.5}, 0.01))
	if !equalIDs(got, []int32{0, 1, 2}) {
		t.Errorf("duplicates: Within = %v", got)
	}
	knn := kd.KNearest(Point{X: 0.5, Y: 0.5}, 3)
	if len(knn) != 3 {
		t.Fatalf("KNearest over duplicates = %v", knn)
	}
}

func TestKDTreeValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"id/point mismatch": func() { BuildKDTree([]int32{1}, nil) },
		"radii mismatch":    func() { BuildKDTreeWithRadii([]int32{0}, []Point{{X: 0, Y: 0}}, nil) },
		"negative radius":   func() { BuildKDTreeWithRadii([]int32{0}, []Point{{X: 0, Y: 0}}, []float64{-1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			f()
		}()
	}
}

// Benchmarks backing the index-ablation discussion: grid vs k-d tree on the
// paper's vendor workload shape (uniform points, small radii).
func benchPoints(n int) ([]int32, []Point, []float64) {
	rng := rand.New(rand.NewSource(42))
	ids := make([]int32, n)
	pts := make([]Point, n)
	radii := make([]float64, n)
	for i := range pts {
		ids[i] = int32(i)
		pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
		radii[i] = 0.02 + 0.01*rng.Float64()
	}
	return ids, pts, radii
}

// The CoveredBy pair probes a seeded cycle of points, as
// BenchmarkGridCoveredByDense does: one fixed probe lets the branch predictor
// learn that probe's hits and misses by heart, which prices any branch in the
// scan below what an arrival stream pays for it.
func benchProbes() []Point {
	return randomPoints(rand.New(rand.NewSource(43)), 1024)
}

func BenchmarkGridCoveredBy(b *testing.B) {
	ids, pts, radii := benchPoints(2000)
	g := NewGrid(UnitSquare, GridResolution(len(pts), 0.03))
	for i := range pts {
		g.InsertWithRadius(ids[i], pts[i], radii[i])
	}
	probes := benchProbes()
	var dst []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = g.CoveredBy(dst[:0], probes[i%len(probes)])
	}
}

func BenchmarkKDTreeCoveredBy(b *testing.B) {
	ids, pts, radii := benchPoints(2000)
	kd := BuildKDTreeWithRadii(ids, pts, radii)
	probes := benchProbes()
	var dst []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = kd.CoveredBy(dst[:0], probes[i%len(probes)])
	}
}

// BenchmarkGridInsert prices building a grid at the resolutions its callers
// really pick: the broker's fleet (8 192 campaigns into the 64×64 serving
// grid, in bulk and with a probe after every registration, which regroups one
// row each time) and core.NewIndex at Fig. 7's 100 000 customers, whose
// GridResolution is ⌈1/maxR⌉ — 20 cells a side at r = 0.05 (≈5 000 points per
// row), 100 at r = 0.01 — on uniform points and on check-in-like clusters that
// crowd a few rows. One op is the whole build plus one Within over everything,
// so the grouping deferred to the first query is inside the measurement.
func BenchmarkGridInsert(b *testing.B) {
	for _, bc := range []struct {
		name              string
		n, cells          int
		probed, clustered bool
	}{
		{"8192into64", 8192, 64, false, false},
		{"8192into64probed", 8192, 64, true, false},
		{"100000into20", 100000, GridResolution(100000, 0.05), false, false},
		{"100000into100", 100000, GridResolution(100000, 0.01), false, false},
		{"100000into20clustered", 100000, GridResolution(100000, 0.05), false, true},
		{"100000into100clustered", 100000, GridResolution(100000, 0.01), false, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(44))
			pts := randomPoints(r, bc.n)
			if bc.clustered {
				// Eight Gaussian hot spots, σ = 0.02, clamped to the square.
				centers := randomPoints(r, 8)
				for i := range pts {
					c := centers[i%len(centers)]
					pts[i] = Point{min(max(c.X+0.02*r.NormFloat64(), 0), 1), min(max(c.Y+0.02*r.NormFloat64(), 0), 1)}
				}
			}
			var dst []int32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := NewGrid(UnitSquare, bc.cells)
				for id, p := range pts {
					g.InsertWithRadius(int32(id), p, 0.001)
					if bc.probed {
						dst = g.CoveredBy(dst[:0], p)
					}
				}
				if dst = g.Within(dst[:0], Point{0.5, 0.5}, 1); len(dst) != bc.n {
					b.Fatalf("Within found %d of %d", len(dst), bc.n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bc.n), "ns/insert")
		})
	}
}

func BenchmarkKDTreeKNearest(b *testing.B) {
	ids, pts, _ := benchPoints(2000)
	kd := BuildKDTree(ids, pts)
	q := Point{X: 0.5, Y: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kd.KNearest(q, 10)
	}
}
