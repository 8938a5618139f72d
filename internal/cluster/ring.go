// Package cluster turns the single-process presence server into a
// consistent-hash presence cluster: a virtual-node hash ring shared by every
// party (servers, relays, load generators), an epoch-versioned cluster
// config served over HTTP by a router, and a drain/handoff protocol so a
// departing shard hands its presence state (client table + per-client
// sequence high-water marks) to its successors before it goes away.
//
// This is the backend half of the paper's aggregation-and-trunking argument
// (Rigazzi et al., arXiv:1502.01708): relays already trunk many UE
// heartbeats into one upstream connection, so a presence shard's connection
// count is dominated by relays and one box serves far more users than
// sockets. The ring spreads those users across N shards while keeping
// routing a pure function of (config, client ID) that every process
// computes identically.
package cluster

import (
	"fmt"
	"slices"
	"sort"
)

// DefaultVirtualNodes is the ring's default vnode count per shard. 128
// points per node keeps ownership imbalance under a few percent for small
// clusters while the ring stays tiny (N×128 points).
const DefaultVirtualNodes = 128

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash uint64
	node int // index into Ring.nodes
}

// Ring is an immutable consistent-hash ring over shard IDs. Ownership is a
// pure function of the node-ID set and the vnode count — no process-local
// state — so every relay, UE and server that holds the same config resolves
// every key to the same shard.
type Ring struct {
	nodes  []string
	points []ringPoint
}

// NewRing builds a ring over the given shard IDs with vnodes virtual nodes
// per shard (0 selects DefaultVirtualNodes). Node order does not matter:
// the ring is canonicalized by sorting, so two processes holding the same
// ID set in different orders still agree on every owner.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	sorted := slices.Clone(nodes)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", sorted[i])
		}
	}
	r := &Ring{
		nodes:  sorted,
		points: make([]ringPoint, 0, len(sorted)*vnodes),
	}
	var buf []byte
	for ni, id := range sorted {
		for v := 0; v < vnodes; v++ {
			buf = buf[:0]
			buf = append(buf, id...)
			buf = append(buf, '#')
			buf = appendUint(buf, uint64(v))
			r.points = append(r.points, ringPoint{hash: hash64(buf), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash ties (astronomically rare) break by node index so the
		// ring stays order-independent.
		return a.node < b.node
	})
	return r, nil
}

// Nodes returns the ring's shard IDs in canonical (sorted) order.
func (r *Ring) Nodes() []string { return slices.Clone(r.nodes) }

// Size returns the shard count.
func (r *Ring) Size() int { return len(r.nodes) }

// Node returns the shard ID at canonical index i.
func (r *Ring) Node(i int) string { return r.nodes[i] }

// Owner returns the shard ID owning key: the first virtual node clockwise
// from the key's hash.
func (r *Ring) Owner(key string) string {
	return r.nodes[r.OwnerIndex(key)]
}

// OwnerIndex returns the canonical index of the shard owning key — the
// one statement of ownership; Owner and GroupSorted name the shard at it.
// A party routing the same keys again under one ring can keep the index
// per key and skip the hash.
func (r *Ring) OwnerIndex(key string) int {
	h := hash64([]byte(key))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// ShardGroup is one shard's slice of a partitioned batch: the owning
// shard and the indices of the keys it owns, in input order.
type ShardGroup struct {
	Shard string
	Idxs  []int
}

// GroupSorted partitions keys by owning shard: the groups come back in
// shard-ID order (the ring's canonical node order, so bucketing by node
// index needs no sort), each listing its keys' indices in input order.
// It has no production caller: session.Uplink partitions by OwnerIndex
// into reused buffers, and the tests hold its partition to this one. It
// stays exported only for the benchmark's cluster.group_ns_per_key probe
// (bench/probes.go); it moves into a test helper once that probe goes.
func (r *Ring) GroupSorted(keys []string) []ShardGroup {
	buckets := make([][]int, len(r.nodes))
	for i, k := range keys {
		ni := r.OwnerIndex(k)
		buckets[ni] = append(buckets[ni], i)
	}
	out := make([]ShardGroup, 0, len(r.nodes))
	for ni, idxs := range buckets {
		if len(idxs) > 0 {
			out = append(out, ShardGroup{Shard: r.nodes[ni], Idxs: idxs})
		}
	}
	return out
}

// hash64 is FNV-1a followed by a murmur3-style finalizer, inlined so
// ownership never depends on a hash seed or process state: the same bytes
// map to the same shard in every process. The finalizer matters: raw FNV-1a
// barely diffuses a trailing-character change into the high bits, so a
// node's virtual points ("id#0", "id#1", …) would land in one tight band
// and the ring would degenerate into contiguous per-node arcs.
func hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// appendUint appends the decimal representation of v.
func appendUint(b []byte, v uint64) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}
