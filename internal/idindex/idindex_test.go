package idindex

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"testing"
)

// TestIndexMatchesMap drives an index through random inserts, deletes and
// lookups next to a map. hash folds the ID onto few distinct values in
// some rounds, so long runs, equal tags and back-shifts across the table's
// wrap-around all happen; every ID must be found at its position after
// every step, and no absent ID may be found.
func TestIndexMatchesMap(t *testing.T) {
	seed := maphash.MakeSeed()
	for _, buckets := range []uint64{0, 5, 64} {
		t.Run(fmt.Sprintf("buckets=%d", buckets), func(t *testing.T) {
			hash := func(id string) uint64 {
				h := maphash.String(seed, id)
				if buckets > 0 {
					h = h%buckets | h%buckets<<40 // equal tags for every ID in a bucket
				}
				return h
			}
			rng := rand.New(rand.NewSource(int64(buckets) + 1))
			var x Index
			ids := []string{} // position → ID; "" once deleted
			ref := map[string]int32{}
			check := func(step int) {
				t.Helper()
				if x.Len() != len(ref) {
					t.Fatalf("step %d: Len %d, want %d", step, x.Len(), len(ref))
				}
				for id, want := range ref {
					got, ok := x.Find(hash(id), func(p int32) bool { return ids[p] == id })
					if !ok || got != want {
						t.Fatalf("step %d: Find(%q) = %d, %v, want %d", step, id, got, ok, want)
					}
				}
			}
			for step := 0; step < 3000; step++ {
				id := fmt.Sprintf("ue-%d", rng.Intn(400))
				h := hash(id)
				pos, ok := x.Find(h, func(p int32) bool { return ids[p] == id })
				if want, in := ref[id]; ok != in || (ok && pos != want) {
					t.Fatalf("step %d: Find(%q) = %d, %v; map has %d, %v", step, id, pos, ok, want, in)
				}
				switch {
				case !ok:
					ids = append(ids, id)
					ref[id] = int32(len(ids) - 1)
					x.Insert(h, ref[id])
				case rng.Intn(3) == 0:
					x.Delete(h, pos)
					delete(ref, id)
					ids[pos] = ""
				}
				if step%97 == 0 {
					check(step)
				}
			}
			check(-1)
			x.Delete(hash("never-inserted"), 12345) // deleting an absent entry is a no-op
			check(-2)
		})
	}
}

// TestIndexReserve pins that a reserved index takes its IDs without
// growing, at a load of at most 13/16.
func TestIndexReserve(t *testing.T) {
	for _, n := range []int{0, 1, 6, 7, 100, 100_000} {
		var x Index
		x.Reserve(n)
		size := len(x.slots)
		for i := 0; i < n; i++ {
			x.Insert(uint64(i)*0x9e3779b97f4a7c15, int32(i))
		}
		if len(x.slots) != size || size*13 < n*16 || size&(size-1) != 0 {
			t.Fatalf("Reserve(%d): %d slots, %d after %d inserts", n, size, len(x.slots), n)
		}
	}
}
