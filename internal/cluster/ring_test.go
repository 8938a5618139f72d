package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("loadue-%05d", i)
	}
	return out
}

// Group partitions keys by owning shard into a map, one key at a time
// through Owner: the reference GroupSorted and the routing fuzz test check
// the fanout against.
func (r *Ring) Group(keys []string) map[string][]int {
	out := make(map[string][]int, len(r.nodes))
	for i, k := range keys {
		id := r.Owner(k)
		out[id] = append(out[id], i)
	}
	return out
}

func mustRing(t *testing.T, nodes []string, vnodes int) *Ring {
	t.Helper()
	r, err := NewRing(nodes, vnodes)
	if err != nil {
		t.Fatalf("NewRing(%v): %v", nodes, err)
	}
	return r
}

// TestRingOwnershipDeterministic pins cross-process determinism: ownership
// is a pure function of the sorted node set, independent of input order,
// and stable against a golden sample (so a hash change cannot slip in
// silently and split a live cluster's routing).
func TestRingOwnershipDeterministic(t *testing.T) {
	nodes := []string{"shard-0", "shard-1", "shard-2"}
	a := mustRing(t, nodes, 0)
	b := mustRing(t, []string{"shard-2", "shard-0", "shard-1"}, 0)
	for _, k := range keys(2000) {
		if ao, bo := a.Owner(k), b.Owner(k); ao != bo {
			t.Fatalf("node order changed ownership of %s: %s vs %s", k, ao, bo)
		}
	}

	// Golden owners pin the hash function and ring placement as a
	// cross-process contract: if this fails after an intentional hash
	// change, every routing party must be redeployed together.
	golden := map[string]string{
		"loadue-00000": "shard-2",
		"loadue-00001": "shard-1",
		"loadue-12345": "shard-2",
		"relay-7":      "shard-1",
	}
	for k, want := range golden {
		if got := a.Owner(k); got != want {
			t.Fatalf("golden owner of %s: got %s, want %s (ring hash changed)", k, got, want)
		}
	}
}

// TestRingBalance checks the vnode count keeps per-shard key counts within
// a sane band (no shard owns more than 2× its fair share at 10k keys).
func TestRingBalance(t *testing.T) {
	nodes := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	r := mustRing(t, nodes, 0)
	counts := make(map[string]int)
	ks := keys(10000)
	for _, k := range ks {
		counts[r.Owner(k)]++
	}
	fair := len(ks) / len(nodes)
	for _, n := range nodes {
		if counts[n] == 0 {
			t.Fatalf("shard %s owns no keys", n)
		}
		if counts[n] > 2*fair {
			t.Fatalf("shard %s owns %d keys, over 2x fair share %d", n, counts[n], fair)
		}
	}
}

// TestRingBoundedMovement is the consistent-hashing property: adding or
// removing one of N shards moves only about K/N keys, and every key that
// does move lands on (add) or leaves (remove) the changed shard — no
// third-party shuffling.
func TestRingBoundedMovement(t *testing.T) {
	ks := keys(10000)
	for n := 2; n <= 6; n++ {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("shard-%d", i)
		}
		before := mustRing(t, nodes, 0)
		grown := mustRing(t, append([]string{"shard-new"}, nodes...), 0)
		moved := 0
		for _, k := range ks {
			ob, og := before.Owner(k), grown.Owner(k)
			if ob != og {
				moved++
				if og != "shard-new" {
					t.Fatalf("n=%d: key %s moved %s -> %s, not to the joining shard", n, k, ob, og)
				}
			}
		}
		// Fair share is K/(N+1); allow 2x for vnode variance.
		if limit := 2 * len(ks) / (n + 1); moved > limit {
			t.Fatalf("n=%d: %d keys moved on join, over limit %d", n, moved, limit)
		}
		if moved == 0 {
			t.Fatalf("n=%d: join moved no keys", n)
		}

		shrunk := mustRing(t, nodes[1:], 0)
		moved = 0
		for _, k := range ks {
			ob, os := before.Owner(k), shrunk.Owner(k)
			if ob != os {
				moved++
				if ob != "shard-0" {
					t.Fatalf("n=%d: key %s moved %s -> %s though shard-0 left", n, k, ob, os)
				}
			}
		}
		if limit := 2 * len(ks) / n; moved > limit {
			t.Fatalf("n=%d: %d keys moved on leave, over limit %d", n, moved, limit)
		}
	}
}

// TestRingGroupMatchesOwner checks the batch partition helper agrees with
// the single-key resolver.
func TestRingGroupMatchesOwner(t *testing.T) {
	r := mustRing(t, []string{"a", "b", "c"}, 64)
	ks := keys(500)
	groups := r.Group(ks)
	total := 0
	for node, idxs := range groups {
		total += len(idxs)
		for _, i := range idxs {
			if own := r.Owner(ks[i]); own != node {
				t.Fatalf("Group put %s under %s, Owner says %s", ks[i], node, own)
			}
		}
	}
	if total != len(ks) {
		t.Fatalf("Group covered %d of %d keys", total, len(ks))
	}
}

// TestRingGroupSortedDeterministic pins the ordered batch partition: the
// slice form must agree with Group, come back sorted by shard ID, and be
// byte-identical across calls — it is what keeps trunk fanout and replay
// routing deterministic per seed (maporder's fix for ranging over Group).
func TestRingGroupSortedDeterministic(t *testing.T) {
	r := mustRing(t, []string{"c", "a", "b"}, 64)
	ks := keys(500)
	groups := r.GroupSorted(ks)
	plain := r.Group(ks)
	if len(groups) != len(plain) {
		t.Fatalf("GroupSorted has %d shards, Group has %d", len(groups), len(plain))
	}
	total := 0
	for i, g := range groups {
		if i > 0 && groups[i-1].Shard >= g.Shard {
			t.Fatalf("groups not sorted: %s before %s", groups[i-1].Shard, g.Shard)
		}
		want := plain[g.Shard]
		if len(g.Idxs) != len(want) {
			t.Fatalf("shard %s: GroupSorted has %d keys, Group has %d", g.Shard, len(g.Idxs), len(want))
		}
		total += len(g.Idxs)
		for _, idx := range g.Idxs {
			if own := r.Owner(ks[idx]); own != g.Shard {
				t.Fatalf("GroupSorted put %s under %s, Owner says %s", ks[idx], g.Shard, own)
			}
		}
	}
	if total != len(ks) {
		t.Fatalf("GroupSorted covered %d of %d keys", total, len(ks))
	}
	again := r.GroupSorted(ks)
	for i := range groups {
		if groups[i].Shard != again[i].Shard || len(groups[i].Idxs) != len(again[i].Idxs) {
			t.Fatalf("GroupSorted not stable across calls at group %d", i)
		}
		for j := range groups[i].Idxs {
			if groups[i].Idxs[j] != again[i].Idxs[j] {
				t.Fatalf("GroupSorted shard %s index order changed across calls", groups[i].Shard)
			}
		}
	}
}

// TestRingValidation covers the constructor's error paths.
func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

// FuzzRingRouting drives the relay-fanout invariant under epoch changes: a
// party partitioning a batch against any single view must produce exactly
// the owners that view's ring reports, for arbitrary node sets and keys —
// including across a simulated epoch flip (remove one node). The fanout can
// be stale (an old epoch) but never torn (mixing epochs inside one batch).
func FuzzRingRouting(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(64))
	f.Add(int64(42), uint8(1), uint16(1))
	f.Add(int64(7), uint8(8), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, nodeCount uint8, keyCount uint16) {
		n := int(nodeCount%8) + 1
		rng := rand.New(rand.NewSource(seed))
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("s%d-%d", i, rng.Intn(1000))
		}
		ring, err := NewRing(nodes, 32)
		if err != nil {
			t.Skip() // rng may duplicate node names
		}
		ks := make([]string, int(keyCount%1024)+1)
		for i := range ks {
			ks[i] = fmt.Sprintf("k%d-%d", i, rng.Intn(1<<20))
		}
		check := func(r *Ring) {
			seen := 0
			for node, idxs := range r.Group(ks) {
				seen += len(idxs)
				for _, i := range idxs {
					if own := r.Owner(ks[i]); own != node {
						t.Fatalf("fanout sent %s to %s, ring owner is %s", ks[i], node, own)
					}
				}
			}
			if seen != len(ks) {
				t.Fatalf("fanout covered %d of %d keys", seen, len(ks))
			}
		}
		check(ring)
		if n > 1 {
			// Epoch flip: drop a random node, re-check the invariant on the
			// successor ring, and confirm only the dropped node's keys moved.
			drop := rng.Intn(n)
			rest := append(append([]string(nil), nodes[:drop]...), nodes[drop+1:]...)
			next, err := NewRing(rest, 32)
			if err != nil {
				t.Skip()
			}
			check(next)
			for _, k := range ks {
				ob, on := ring.Owner(k), next.Owner(k)
				if ob != on && ob != nodes[drop] {
					t.Fatalf("epoch flip moved %s from surviving shard %s to %s", k, ob, on)
				}
			}
		}
	})
}
