package geo

import (
	"math"
	"testing"
)

func TestStripesOf(t *testing.T) {
	s := NewStripes(UnitSquare, 4, 64)
	if s.n != 4 || s.bounds != UnitSquare {
		t.Fatalf("stripes %+v", s)
	}
	cases := []struct {
		y    float64
		want int
	}{
		{0, 0}, {0.1, 0}, {0.25, 1}, {0.49, 1}, {0.5, 2}, {0.74, 2}, {0.75, 3},
		{0.999, 3}, {1, 3}, // top edge clamps into the last band
		{-5, 0}, {5, 3}, // out-of-bounds points clamp to the nearest band
		{-1e300, 0}, {1e300, 3}, {math.MaxFloat64, 3}, // also past int's range
	}
	for _, c := range cases {
		if got := s.Of(Point{X: 0.5, Y: c.y}); got != c.want {
			t.Errorf("Of(y=%g) = %d, want %d", c.y, got, c.want)
		}
	}
}

func TestStripesRange(t *testing.T) {
	s := NewStripes(UnitSquare, 8, 64)
	// A disk straddling a band boundary overlaps both bands.
	if lo, hi := s.Range(0.24, 0.26); lo != 1 || hi != 2 {
		t.Errorf("Range(0.24, 0.26) = [%d, %d], want [1, 2]", lo, hi)
	}
	// An inverted window normalizes to the covering interval.
	if lo, hi := s.Range(0.13, 0.115); lo != 0 || hi != 1 {
		t.Errorf("inverted window must normalize: got [%d, %d]", lo, hi)
	}
	// A huge window covers everything, however huge.
	for _, r := range []float64{10, 1e19, 1e300} {
		if lo, hi := s.Range(-r, r); lo != 0 || hi != 7 {
			t.Errorf("Range(%g, %g) = [%d, %d], want [0, 7]", -r, r, lo, hi)
		}
	}
	// Every point's own band is inside any window containing it.
	for y := 0.0; y <= 1.0; y += 0.01 {
		for r := 0.0; r <= 0.3; r += 0.05 {
			lo, hi := s.Range(y-r, y+r)
			if band := s.Of(Point{Y: y}); band < lo || band > hi {
				t.Fatalf("band %d of y=%g outside Range(%g, %g) = [%d, %d]", band, y, y-r, y+r, lo, hi)
			}
		}
	}
}

func TestStripesSingleBand(t *testing.T) {
	s := NewStripes(UnitSquare, 1, 64)
	if s.Of(Point{Y: 0.9}) != 0 {
		t.Error("single band must own every point")
	}
	if lo, hi := s.Range(0.2, 0.8); lo != 0 || hi != 0 {
		t.Errorf("single band range [%d, %d]", lo, hi)
	}
}

func TestStripesPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("zero bands", func() { NewStripes(UnitSquare, 0, 64) })
	mustPanic("more bands than cell rows", func() { NewStripes(UnitSquare, 65, 64) })
	mustPanic("degenerate bounds", func() { NewStripes(Rect{}, 2, 64) })
}

// TestStripesFollowGridRows: every band is a run of whole cell rows of the
// grid over the same bounds, for every band count up to the row count — so a
// point's band is a function of its grid cell row, and the bands tile the rows
// in order, ⌊64/n⌋ or ⌈64/n⌉ rows each.
func TestStripesFollowGridRows(t *testing.T) {
	const cells = 64
	g := NewGrid(UnitSquare, cells)
	for n := 1; n <= cells; n++ {
		s := NewStripes(UnitSquare, n, cells)
		bandOf := make([]int, cells)
		for cy := range bandOf {
			bandOf[cy] = s.Of(Point{Y: (float64(cy) + 0.5) / cells})
		}
		rows := make([]int, n)
		for cy, band := range bandOf {
			if cy > 0 && band != bandOf[cy-1] && band != bandOf[cy-1]+1 {
				t.Fatalf("%d bands: row %d in band %d after row %d in band %d", n, cy, band, cy-1, bandOf[cy-1])
			}
			rows[band]++
		}
		for band, k := range rows {
			if k != cells/n && k != (cells+n-1)/n {
				t.Fatalf("%d bands: band %d holds %d cell rows", n, band, k)
			}
		}
		// Probe each row's edges and the values past the bounds.
		for cy := 0; cy <= cells; cy++ {
			edge := float64(cy) / cells
			for _, y := range []float64{math.Nextafter(edge, -1), edge, math.Nextafter(edge, 2), -1, 2, math.NaN()} {
				_, row := g.cellOf(Point{Y: y})
				if got := s.Of(Point{Y: y}); got != bandOf[row] {
					t.Fatalf("%d bands: y=%g in cell row %d (band %d) but Of says band %d", n, y, row, bandOf[row], got)
				}
			}
		}
	}
}
