package broker

import (
	"math/rand"
	"slices"
	"testing"
)

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
