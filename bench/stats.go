package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of vs (mean of the two middles for an even
// count), 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of vs, 0 for an empty slice.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var t float64
	for _, v := range vs {
		t += v
	}
	return t / float64(len(vs))
}

// mad is the median absolute deviation from the median.
func mad(vs []float64) float64 {
	m := median(vs)
	dev := make([]float64, len(vs))
	for i, v := range vs {
		dev[i] = math.Abs(v - m)
	}
	return median(dev)
}

// spread is the interquartile range of vs as a share of its median — the
// quantity the benchmark contract bounds. Quartiles follow Python's
// statistics.quantiles(n=4) (exclusive method), so numbers printed here can
// be compared with the driver's.
func spread(vs []float64) float64 {
	n := len(vs)
	m := median(vs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule, and how many samples lie strictly beyond that rank.
func percentile(sorted []time.Duration, q float64) (v time.Duration, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// minBeyond is the fewest samples that must lie beyond a percentile for it
// to be reported: with fewer, the value is one or two outliers, not a rate.
const minBeyond = 10

// supported reports whether the q-quantile of n samples has at least
// minBeyond samples beyond it.
func supported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minBeyond
}

// sample is one completed request as the load generator saw it.
type sample struct {
	done     time.Duration // completion time, offset from the window start
	lat      time.Duration // send (or, open loop, intended send) → full body read
	arrivals int32
	offers   int32
}

// window is the per-interval reduction of the samples that completed in it.
type window struct {
	Requests   int     `json:"requests"`
	Arrivals   int     `json:"arrivals"`
	Offers     int     `json:"offers"`
	ArrivalsPS float64 `json:"arrivals_per_s"`
}

// windows cuts samples into consecutive intervals of length every covering
// [0, total) and reduces each. Samples completing at or after total are
// dropped: they belong to the stragglers, not to the timed window.
func windows(samples []sample, every, total time.Duration) []window {
	out := make([]window, max(1, int(total/every)))
	for _, s := range samples {
		i := int(s.done / every)
		if s.done < 0 || i >= len(out) {
			continue
		}
		out[i].Requests++
		out[i].Arrivals += int(s.arrivals)
		out[i].Offers += int(s.offers)
	}
	for i := range out {
		out[i].ArrivalsPS = float64(out[i].Arrivals) / every.Seconds()
	}
	return out
}

// tail is a whole-run percentile with the count of samples beyond it, so a
// reader can tell a rate from an outlier.
type tail struct {
	Us     float64 `json:"us"`
	Beyond int     `json:"beyond"`
	N      int     `json:"n"`
}

func tailOf(samples []sample, q float64) tail {
	lats := make([]time.Duration, len(samples))
	for i, s := range samples {
		lats[i] = s.lat
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	v, beyond := percentile(lats, q)
	return tail{Us: float64(v) / 1e3, Beyond: beyond, N: len(lats)}
}
