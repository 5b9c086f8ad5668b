package broker

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/workload"
)

// TestVendorSlabMatchesPrepare: the fleet's vendor slab is the
// registration-time UnitPearson.Prepare, for any mix of tag dimensions, while
// it grows. Registrations of dimension 0, 1, 8, 17 and 256 interleave, so the
// offsets are irregular and the slab regrows several times; after each one
// the new campaign's run and sum of squares are Float64bits-equal to a fresh
// Prepare of its tags, and every header taken just before a regrowth still
// reads all of its own ids correctly once the fleet has long outgrown it.
func TestVendorSlabMatchesPrepare(t *testing.T) {
	b, err := New(Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(27))
	var tags [][]float64
	check := func(when string, fl *fleet, id int) {
		t.Helper()
		var want model.UnitPearson
		want.Prepare(tags[id])
		d, cov := want.Vector()
		got := fl.vendorAt(fl.rowOf[id])
		if len(got) != len(d) {
			t.Fatalf("%s: campaign %d has a %d-dimension run for %d tags", when, id, len(got), len(d))
		}
		for i := range d {
			if math.Float64bits(got[i]) != math.Float64bits(d[i]) {
				t.Fatalf("%s: campaign %d, tag %d: slab %x, Prepare %x", when, id, i, math.Float64bits(got[i]), math.Float64bits(d[i]))
			}
		}
		if got := fl.cov[fl.rowOf[id]]; math.Float64bits(got) != math.Float64bits(cov) {
			t.Fatalf("%s: campaign %d: slab cov %x, Prepare %x", when, id, math.Float64bits(got), math.Float64bits(cov))
		}
	}
	var outgrown []*fleet
	dims := []int{0, 1, 8, 17, 256}
	for i := 0; i < 400; i++ {
		v := make([]float64, dims[rng.Intn(len(dims))])
		for k := range v {
			v[k] = rng.Float64()
		}
		tags = append(tags, v)
		before := b.dir.Load()
		id, err := b.RegisterCampaign(geo.Point{X: rng.Float64(), Y: rng.Float64()}, 0.1, 10, v)
		if err != nil || int(id) != i {
			t.Fatalf("registration %d: id %d, %v", i, id, err)
		}
		after := b.dir.Load()
		if len(after.off) != i+2 || after.off[i+1] != len(after.d) || len(after.cov) != i+1 {
			t.Fatalf("after registration %d: %d offsets ending at %d, %d covs, slab of %d", i, len(after.off), after.off[i+1], len(after.cov), len(after.d))
		}
		check("at registration", after, i)
		if len(before.d) > 0 && len(after.d) > len(before.d) && &after.d[0] != &before.d[0] {
			outgrown = append(outgrown, before)
		}
	}
	if len(outgrown) < 3 {
		t.Fatalf("the slab regrew %d times over %d registrations; the mix must force several", len(outgrown), len(tags))
	}
	for _, fl := range append(outgrown, b.dir.Load()) {
		for id := range fl.campaigns {
			check("at the end", fl, id)
		}
	}
}

// TestThresholdMemoMatchesThreshold: thresholdAt returns threshold's bits
// whatever its memo holds — as γ's bounds move the base under an unchanged δ,
// as δ moves under an unchanged base, and on the repeats that hit — and every
// repricing is written back to the campaign's copy. δ is drawn on both sides
// of every edge of pow's Exp·Log domain (0, tiny, just below and at 0.5,
// (0.5, 1]) and the base sits at each clamp: 2e from the first observations,
// 1e9 once a tiny efficiency lands, then a configured 5.
func TestThresholdMemoMatchesThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	g := gammaState{min: math.Inf(1)}
	var memo, home powMemo
	clamped := map[float64]int{}
	fixed := []float64{0, math.SmallestNonzeroFloat64, 0.125, math.Nextafter(0.5, 0), 0.5,
		math.Nextafter(0.5, 1), 0.75, 1}
	delta := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return rng.Float64() * 1e-300
		case 1:
			return math.Nextafter(0.5, 0) - rng.Float64()*1e-12
		case 2:
			return 1 - rng.Float64()/2
		case 3:
			return rng.Float64()
		}
		return fixed[rng.Intn(len(fixed))]
	}
	for i := 0; i < 6000; i++ {
		switch {
		case i < 1000:
			g.observe(1 + rng.Float64()/2) // e·γmax/γmin < 2e: clamped up
		case i == 3000:
			g.observe(1e-12) // e·γmax/γmin > 1e9: clamped down from here on
		case i == 4000:
			g.cfgG = 5 // a configured base from here on
		case rng.Intn(3) == 0:
			g.observe(rng.ExpFloat64())
		}
		delta := delta()
		want := g.threshold(delta)
		if got := g.thresholdAt(delta, &memo, &home); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d, δ %g, γ [%g, %g]: memo gives %x, threshold %x", i, delta, g.min, g.max, math.Float64bits(got), math.Float64bits(want))
		}
		if home != memo {
			t.Fatalf("step %d: the campaign's memo %+v is not the priced one %+v", i, home, memo)
		}
		if base := g.base(); base == 2*math.E || base == 1e9 {
			clamped[base]++
		}
	}
	if clamped[2*math.E] == 0 || clamped[1e9] == 0 {
		t.Fatalf("steps at each clamp: %v; want both 2e and 1e9", clamped)
	}
}

// BenchmarkTermsDense is the terms stage alone — read sweep and filter loop —
// over the `dense` market's gathered sets (≈260 ids of 8 192, billed fleet),
// so the rung has its own price beside BenchmarkUnitPearsonScore. One op is
// one arrival.
func BenchmarkTermsDense(b *testing.B) {
	br, err := New(Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		b.Fatal(err)
	}
	arrivals := denseMarket(b, br, false)[:256]
	ar := &br.shards[0].arena
	gathered := make([][]int32, len(arrivals))
	var fl *fleet
	for i := range arrivals {
		fl = br.gather(ar, arrivals[i].Loc, 0, len(br.shards)-1)
		gathered[i] = slices.Clone(ar.ids)
	}
	var tally scanTally
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(arrivals)
		ar.ids = gathered[k]
		br.terms(ar, &arrivals[k], fl, &tally)
	}
	if tally.disp[dispLowScore] == 0 && b.N >= len(arrivals) {
		b.Fatal("no candidate fell at the score: not the dense market's mix")
	}
}

// BenchmarkRelayout prices one re-layout of a `dense`-style fleet — every
// row's hot row, walk row, funnel row and slab run copied into fresh pages in
// scan order — which holds every stripe lock while it runs, so max-ns, the
// longest one, is the longest stall it can put on serving. One op is one
// re-layout.
func BenchmarkRelayout(b *testing.B) {
	for _, n := range []int{8192, 65536} {
		b.Run(fmt.Sprintf("campaigns=%d", n), func(b *testing.B) {
			br, err := New(Config{AdTypes: workload.DefaultAdTypes()})
			if err != nil {
				b.Fatal(err)
			}
			cfg := workload.BilledBrokerLoadConfig(n, 1, 1)
			specs, _, err := workload.BrokerLoad(cfg)
			if err != nil {
				b.Fatal(err)
			}
			registerLoad(b, br, specs)
			b.ReportAllocs()
			b.ResetTimer()
			var longest time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				br.regMu.Lock()
				br.relayout()
				br.regMu.Unlock()
				longest = max(longest, time.Since(start))
			}
			b.ReportMetric(float64(longest.Nanoseconds()), "max-ns")
		})
	}
}

// TestGatherOrderIsStripeFree: gather emits an arrival's candidates in scan
// order — by the grid cell row, then cell, of each campaign's location, then
// by id — and so in the same order at every stripe count, including counts
// that do not divide the grid's 64 cell rows. The walk feeds γ in this order,
// so a stripe band that split a cell row would make decisions depend on the
// shard count.
func TestGatherOrderIsStripeFree(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	type spec struct {
		loc geo.Point
		r   float64
	}
	fleet := make([]spec, 3000)
	for i := range fleet {
		fleet[i] = spec{geo.Point{X: rng.Float64()*1.1 - 0.05, Y: rng.Float64()*1.1 - 0.05}, 0.02 + 0.1*rng.Float64()}
	}
	arrivals := make([]geo.Point, 300)
	for i := range arrivals {
		arrivals[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	var want [][]int32
	for _, shards := range []int{1, 3, 5, 6, 7, 64} {
		b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range fleet {
			if _, err := b.RegisterCampaign(s.loc, s.r, 10, []float64{1, 0.5}); err != nil {
				t.Fatal(err)
			}
		}
		maxR := b.maxRadius.Load()
		for i, p := range arrivals {
			s0, s1 := b.stripes.Range(p.Y-maxR, p.Y+maxR)
			ar := &scanArena{}
			b.lockStripes(s0, s1, nil)
			b.gather(ar, p, s0, s1)
			b.unlockStripes(s0, s1)
			if shards == 1 {
				if !slices.IsSortedFunc(ar.ids, func(x, y int32) int { return cmp.Compare(scanKey(b, x), scanKey(b, y)) }) {
					t.Fatalf("arrival %d: gathered %v, not in scan order", i, ar.ids)
				}
				want = append(want, ar.ids)
			} else if !slices.Equal(ar.ids, want[i]) {
				t.Fatalf("arrival %d at %d stripes: gathered %v, at 1 stripe %v", i, shards, ar.ids, want[i])
			}
		}
	}
}
