package geo

import "fmt"

// Stripes partitions a Rect into n equal-height horizontal bands. The broker
// shards its campaign state by stripe: a campaign belongs to the stripe
// containing its center, and a query disk (center, r) can only reach
// campaigns whose stripes overlap the disk's Y-window — Range returns exactly
// that contiguous stripe interval, which doubles as a deadlock-free lock
// acquisition order (always ascending).
//
// Stripes is immutable and safe for concurrent use.
type Stripes struct {
	bounds Rect
	n      int
	h      float64 // band height
}

// NewStripes partitions bounds into n horizontal bands; n must be ≥ 1 and
// bounds non-degenerate.
func NewStripes(bounds Rect, n int) Stripes {
	if n < 1 {
		panic(fmt.Sprintf("geo: stripe count %d < 1", n))
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		panic(fmt.Sprintf("geo: degenerate stripe bounds %+v", bounds))
	}
	return Stripes{bounds: bounds, n: n, h: bounds.Height() / float64(n)}
}

// N returns the number of bands.
func (s Stripes) N() int { return s.n }

// Bounds returns the partitioned region.
func (s Stripes) Bounds() Rect { return s.bounds }

// Of returns the index of the band containing p, clamping points outside the
// bounds to the nearest band so every point maps somewhere.
func (s Stripes) Of(p Point) int { return s.ofY(p.Y) }

func (s Stripes) ofY(y float64) int {
	// Clamped as a float: converting one outside int's range is
	// implementation-defined (amd64 answers MinInt64 for +1e300), and both a
	// client's coordinate and a campaign's radius can be that large.
	f := (y - s.bounds.Min.Y) / s.h
	if !(f > 0) {
		return 0
	}
	if f >= float64(s.n) {
		return s.n - 1
	}
	return int(f)
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
