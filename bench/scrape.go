package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// scrape is one parsed Prometheus text exposition: series (name plus its
// label set, exactly as exposed) → value.
type scrape map[string]float64

// parseScrape reads the text format muaa-serve's /metrics emits: comment
// lines skipped, every other line `series value`. A label value may hold
// spaces ("In-App Video"), so the value is what follows the last space.
func parseScrape(body []byte) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("scrape: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: bad value in %q: %v", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// sum adds every series of the family name (bare or labelled).
func (s scrape) sum(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// delta is after−before for one family, summed over its label sets.
func delta(before, after scrape, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// ratio is Δnum/Δden, 0 when the denominator did not move.
func ratio(before, after scrape, num, den string) float64 {
	d := delta(before, after, den)
	if d == 0 {
		return 0
	}
	return delta(before, after, num) / d
}

// histQuantile estimates the q-quantile of a histogram family over the
// interval between two scrapes, interpolating linearly inside the bucket
// that holds the rank, as Prometheus' histogram_quantile does. It returns 0
// when nothing was observed in the interval.
func histQuantile(before, after scrape, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.n == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return lo
}
