package broker

import (
	"math"
	"math/rand"
	"slices"
	"testing"

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
		got := fl.vendor(int32(id))
		if len(got) != len(d) {
			t.Fatalf("%s: campaign %d has a %d-dimension run for %d tags", when, id, len(got), len(d))
		}
		for i := range d {
			if math.Float64bits(got[i]) != math.Float64bits(d[i]) {
				t.Fatalf("%s: campaign %d, tag %d: slab %x, Prepare %x", when, id, i, math.Float64bits(got[i]), math.Float64bits(d[i]))
			}
		}
		if math.Float64bits(fl.cov[id]) != math.Float64bits(cov) {
			t.Fatalf("%s: campaign %d: slab cov %x, Prepare %x", when, id, math.Float64bits(fl.cov[id]), math.Float64bits(cov))
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
// so the rung has its own price beside BenchmarkOrderIDs and
// BenchmarkUnitPearsonScore. One op is one arrival.
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

// TestOrderIDsMatchesSort holds the bitset ordering to slices.Sort over
// directories on both sides of every word and summary-word boundary, with one
// arena carried across all of them — so each call also runs on whatever the
// previous one left behind, and a directory that outgrows the bitset regrows
// it mid-stream. Both levels must be all zero after every call: a stale bit
// would surface as a phantom candidate in some later arrival.
func TestOrderIDsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var ar scanArena
	check := func(n int, ids []int32) {
		t.Helper()
		want := slices.Clone(ids)
		slices.Sort(want)
		ar.ids = append(ar.ids[:0], ids...)
		ar.orderIDs(n)
		if !slices.Equal(ar.ids, want) {
			t.Fatalf("dir %d, %d ids: got %v, want %v", n, len(ids), ar.ids, want)
		}
		for _, level := range [][]uint64{ar.mark, ar.summary} {
			if i := slices.IndexFunc(level, func(w uint64) bool { return w != 0 }); i >= 0 {
				t.Fatalf("dir %d, %d ids: word %d of a %d-word level left at %#x", n, len(ids), i, len(level), level[i])
			}
		}
	}
	for _, n := range []int{1, 63, 64, 65, 4095, 4096, 4097, 70000, 64} { // and back down: the bitset only grows
		last := int32(n - 1)
		check(n, nil)
		check(n, []int32{0})
		check(n, []int32{last})
		if last != 0 {
			check(n, []int32{last, 0})
		}
		for trial := 0; trial < 40; trial++ {
			k := 1 + rng.Intn(min(n, 600))
			ids := make([]int32, 0, k+2)
			for _, id := range rng.Perm(n)[:k] {
				ids = append(ids, int32(id))
			}
			if trial%2 == 0 && !slices.Contains(ids, 0) {
				ids = append(ids, 0)
			}
			if trial%3 == 0 && !slices.Contains(ids, last) {
				ids = append(ids, last)
			}
			check(n, ids)
		}
	}
	all := make([]int32, 70000)
	for i := range all {
		all[i] = int32(len(all) - 1 - i)
	}
	check(len(all), all) // every bit of every word, descending in
}

// BenchmarkOrderIDs is the gather stage's ordering step at the `dense`
// workload's shape — 260 ids out of a directory of 8 192 — against the
// comparison sort it replaced.
func BenchmarkOrderIDs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const dir, k = 8192, 260
	ids := make([]int32, k)
	for i, id := range rng.Perm(dir)[:k] {
		ids[i] = int32(id)
	}
	b.Run("bitset", func(b *testing.B) {
		var ar scanArena
		for i := 0; i < b.N; i++ {
			ar.ids = append(ar.ids[:0], ids...)
			ar.orderIDs(dir)
		}
	})
	b.Run("slices.Sort", func(b *testing.B) {
		buf := make([]int32, k)
		for i := 0; i < b.N; i++ {
			copy(buf, ids)
			slices.Sort(buf)
		}
	})
}
