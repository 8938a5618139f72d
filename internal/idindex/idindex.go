// Package idindex is the one ID index of the live stack's hot paths: the
// decoder's source table (hbproto), the presence server's stripes
// (relaynet) and a trunk's users (loadgen). Each of them keeps its IDs in a
// dense column of its own; an Index maps an ID to its position there, so
// the first sight of an ID is one probe into a flat, pointer-free table
// instead of a Go map insert, and the collector never scans the index.
//
// The owner hashes IDs with hash/maphash under a seed of its own. Two of
// the three owners take their IDs from the wire, and a per-owner random
// seed keeps a peer from choosing IDs that pile into one probe run.
package idindex

// Index maps IDs to the positions (0, 1, …) where their owner keeps them.
// It is open-addressed and linearly probed, and stores no ID: each slot
// packs the low 32 bits of the ID's hash with its position, so a probe
// compares hashes first and asks the owner to compare IDs only on a match,
// and the table grows and deletes without hashing an ID again.
//
// The zero value is an empty index. An Index is not synchronized.
type Index struct {
	slots []uint64 // uint32(hash)<<32 | position+1; 0 is an empty slot
	n     int
}

// The index grows before it is more than 13/16 full, the load Go's own
// maps grew at: a miss then probes a dozen slots at worst, two cache lines.
const loadNum, loadDen = 13, 16

// Len returns how many IDs the index holds.
func (x *Index) Len() int { return x.n }

// Reserve sizes an empty index for n IDs, so that inserting them never
// grows it.
func (x *Index) Reserve(n int) {
	size := 8
	for size*loadNum < n*loadDen {
		size *= 2
	}
	if size > len(x.slots) {
		x.rehash(size)
	}
}

// Find returns the position of the ID whose hash is h, asking same whether
// a candidate position holds that ID.
func (x *Index) Find(h uint64, same func(pos int32) bool) (int32, bool) {
	if x.n == 0 {
		return -1, false
	}
	tag, mask := uint32(h), uint32(len(x.slots)-1)
	for b := tag & mask; ; b = (b + 1) & mask {
		e := x.slots[b]
		if e == 0 {
			return -1, false
		}
		if uint32(e>>32) == tag {
			if pos := int32(uint32(e)) - 1; same(pos) {
				return pos, true
			}
		}
	}
}

// Insert adds the ID whose hash is h at position pos. The ID must not be
// in the index already.
func (x *Index) Insert(h uint64, pos int32) {
	if (x.n+1)*loadDen > len(x.slots)*loadNum {
		x.rehash(max(8, 2*len(x.slots)))
	}
	x.put(uint64(uint32(h))<<32 | uint64(pos+1))
	x.n++
}

// Delete removes the ID whose hash is h and whose position is pos, if the
// index holds it. The run after it is shifted back into the hole, so no
// slot is left as a tombstone and later probes stay as short as they were.
func (x *Index) Delete(h uint64, pos int32) {
	if x.n == 0 {
		return
	}
	want, mask := uint64(uint32(h))<<32|uint64(pos+1), uint32(len(x.slots)-1)
	hole := uint32(h) & mask
	for x.slots[hole] != want {
		if x.slots[hole] == 0 {
			return
		}
		hole = (hole + 1) & mask
	}
	x.n--
	for j := hole; ; {
		x.slots[hole] = 0
		for {
			j = (j + 1) & mask
			e := x.slots[j]
			if e == 0 {
				return
			}
			// e may fill the hole when the hole lies on its probe path:
			// at least as far from j as its home bucket is.
			if home := uint32(e>>32) & mask; (j-home)&mask >= (j-hole)&mask {
				x.slots[hole], hole = e, j
				break
			}
		}
	}
}

// put stores an entry in the first empty slot of its probe run.
func (x *Index) put(e uint64) {
	mask := uint32(len(x.slots) - 1)
	b := uint32(e>>32) & mask
	for x.slots[b] != 0 {
		b = (b + 1) & mask
	}
	x.slots[b] = e
}

// rehash moves every entry into a table of size slots (a power of two).
func (x *Index) rehash(size int) {
	old := x.slots
	x.slots = make([]uint64, size)
	for _, e := range old {
		if e != 0 {
			x.put(e)
		}
	}
}
