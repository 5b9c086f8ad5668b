package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 2}, 1},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{0.5, 0.5}, Point{0.5, 0.5}, 0},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v, %v) = %g, want %g", c.p, c.q, got, c.want)
		}
		if got := c.q.Dist(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v, %v) = %g, want %g (symmetry)", c.q, c.p, got, c.want)
		}
	}
}

func TestDist2MatchesDistSquared(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p, q := Point{clampUnit(ax), clampUnit(ay)}, Point{clampUnit(bx), clampUnit(by)}
		d := p.Dist(q)
		return math.Abs(p.Dist2(q)-d*d) <= 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{clampUnit(ax), clampUnit(ay)}
		b := Point{clampUnit(bx), clampUnit(by)}
		c := Point{clampUnit(cx), clampUnit(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointIn(t *testing.T) {
	c := Point{0.5, 0.5}
	if !(Point{0.5, 0.6}).In(c, 0.1) {
		t.Error("boundary point should be inside the closed disk")
	}
	if (Point{0.5, 0.61}).In(c, 0.1) {
		t.Error("point just outside should not be inside")
	}
	if !c.In(c, 0) {
		t.Error("center is in the zero-radius disk")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{Point{0, 0}, Point{1, 2}}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{1, 2}) || !r.Contains(Point{0.5, 1}) {
		t.Error("boundary and interior points must be contained")
	}
	if r.Contains(Point{1.01, 1}) || r.Contains(Point{0.5, -0.01}) {
		t.Error("exterior points must not be contained")
	}
	if r.Width() != 1 || r.Height() != 2 {
		t.Errorf("Width/Height = %g/%g, want 1/2", r.Width(), r.Height())
	}
}

// clampUnit squashes an arbitrary quick-generated float into [0,1], mapping
// non-finite values to 0.5 so geometric identities stay numerically honest.
func clampUnit(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	v = math.Mod(math.Abs(v), 1)
	return v
}
