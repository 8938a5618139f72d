package relaynet

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"d2dhb/internal/hbproto"
	"d2dhb/internal/idindex"
)

// row is everything the server keeps about one client: the presence row —
// the expiration timer each heartbeat resets, and maxSeq, the delivered
// sequence high-water mark (the row travels in a cluster handoff so the
// receiving shard knows what the client has already proven delivered) —
// the routing verdict under the last cluster view it was checked against,
// where the client's ID sits in the stripe's arena, and the row whose
// source followed this one on a connection last time. A row holds no
// pointer, so the collector never scans a stripe's rows, and a client's
// first sight takes the stripe's next position and arena bytes instead of
// heap objects of its own.
type row struct {
	// Times are UnixNano, the unit ExportPresence ships. unset marks a
	// time never written, below any instant an import can carry.
	lastSeen, deadline int64
	maxSeq             uint64
	// routed is the view epoch + 1, mod 2³², the misrouted verdict was
	// computed under (0: never): whether that ring assigns the client to
	// another shard. A client's next heartbeat under a newer view
	// recomputes it.
	routed uint32
	// id is the arena position of the client's ID (see arena): it stays
	// put while the row holds its client, unless a repack moves every ID.
	id uint32
	// next is the row whose source followed this one on a connection last
	// time (0: none yet), the table's guess for what a reader decodes
	// after this client (see connState.Source) and only ever a hint.
	next      hbproto.Handle
	app       uint16 // index into the stripe's apps
	misrouted bool
	live      bool // the row holds a client; false once a handoff frees it
}

const unset = math.MinInt64

// presenceShardBits stripes the presence table into 1<<bits stripes; the
// top bits of an ID's hash pick its stripe, the low ones its bucket in the
// stripe's index. 64 stripes keep contention negligible even for thousands
// of concurrent handler goroutines.
const (
	presenceShardBits  = 6
	presenceShardCount = 1 << presenceShardBits
)

// pageRows is how many rows a stripe adds at a time past its first
// pageRows: a page of rows, which never moves.
const (
	pageBits = 8
	pageRows = 1 << pageBits
)

// presenceShard is one stripe of the presence table: a column of rows, an
// arena holding their clients' IDs, and an index over the IDs. A client's
// state lives entirely in the stripe its ID hashes to, so per-client
// ordering invariants (the timer's high-water marks) are preserved under
// the stripe lock alone.
// Rows a handoff frees are reused before the column grows, and a row's
// position never changes while it holds its client.
//
// The column grows without copying past its first page: positions below
// pageRows sit in rows, grown like a slice, so a stripe of a few clients
// holds no more than it needs; the rest sit in pages, added whole. The
// live stack's steady state runs no GC, so every array a column grows out
// of by copying stays in the process's peak.
type presenceShard struct {
	mu    sync.Mutex
	index idindex.Index
	rows  []row             // page 0
	pages []*[pageRows]row  // page i is pages[i-1]
	ids   arena             // every row's client ID
	n     int32             // positions given out, freed ones included
	free  []int32           // freed rows, reused first
	apps  []string          // app index → name; apps[0] is ""
	appOf map[string]uint16 // 192 bytes of fields: neighbouring stripes share no cache line
}

// The stripe's arena keeps its IDs in chunks of bytes that never move and
// are never rewritten: an entry is the ID's length as a uvarint, then its
// bytes, appended where the last chunk's bytes end. A stripe's first chunk
// holds chunkFirst bytes and each later one twice the one before, up to
// chunkMax, so a stripe of a few clients holds no more than it needs and
// one of thousands wastes at most a chunk's tail. An ID too long for a
// chunk of that size gets a chunk of its own, exactly its entry's size.
// An entry's position is its chunk's number above chunkBits and its
// offset in the chunk below: every entry starts below chunkMax, and a
// stripe addresses 2²¹ chunks, at least 4 GiB of IDs.
const (
	chunkFirst = 32
	chunkBits  = 11
	chunkMax   = 1 << chunkBits
)

// arena is a stripe's ID store. The strings the stripe hands out
// (connState.Source, ExportPresence) alias its bytes, and since the bytes
// are never rewritten such a string reads its own ID for as long as it is
// held, whatever becomes of the row. Bytes no row holds — a freed row's,
// or a first sight's that never became a row — are dead; the stripe
// re-packs its live IDs into fresh chunks once they outnumber the live
// bytes and a chunk's worth (see settle), and the chunks it leaves behind
// go to the collector once no string aliases them.
type arena struct {
	chunks [][]byte // len: the bytes written; cap: the chunk's size
	used   int      // bytes written into chunks
	live   int      // bytes of the entries rows hold
}

// entrySize is the arena bytes of an n-byte ID.
func entrySize(n int) int { return (bits.Len64(uint64(n)|1)+6)/7 + n }

// bytes returns the ID at position pos.
func (a *arena) bytes(pos uint32) []byte { return entry(a.chunks, pos) }

// str returns the ID at position pos as a string over the arena's bytes.
func (a *arena) str(pos uint32) string {
	b := a.bytes(pos)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// entry returns the ID at position pos of chunks. It decodes the length
// itself, one byte for an ID under 128 bytes, and inlines: it runs inside
// connState.Source's index probe, as deep as a reader's stack gets.
func entry(chunks [][]byte, pos uint32) []byte {
	c := chunks[pos>>chunkBits][pos&(chunkMax-1):]
	n, k := 0, 0
	for s := 0; ; s += 7 {
		b := c[k]
		k++
		if n |= int(b&0x7f) << s; b < 0x80 {
			return c[k : k+n]
		}
	}
}

// fits reports whether the last chunk has room for an n-byte ID.
func (a *arena) fits(n int) bool {
	i := len(a.chunks) - 1
	return i >= 0 && cap(a.chunks[i])-len(a.chunks[i]) >= entrySize(n)
}

// grow adds a chunk with room for an n-byte ID. It inlines, so the
// allocation runs from its caller's frame: add's is the deepest call of a
// socket-per-UE client's first sight, and every server handler's stack
// must hold that (DESIGN.md, "The goroutine stack budget").
func (a *arena) grow(n int) {
	a.chunks = append(a.chunks, make([]byte, 0, a.chunkSize(n)))
}

// chunkSize is the size of the arena's next chunk, given an n-byte ID to
// hold.
func (a *arena) chunkSize(n int) int {
	if i := len(a.chunks); i < chunkBits {
		return max(min(chunkFirst<<i, chunkMax), entrySize(n))
	}
	return max(chunkMax, entrySize(n))
}

// put appends id's entry to the last chunk, which has room for it (see
// grow), and returns its position. The arena only reads id.
func (a *arena) put(id []byte) uint32 {
	i := len(a.chunks) - 1
	c, off, need := a.chunks[i], len(a.chunks[i]), entrySize(len(id))
	c = c[:off+need]
	copy(c[off+binary.PutUvarint(c[off:], uint64(len(id))):], id)
	a.chunks[i], a.used = c, a.used+need
	return uint32(i)<<chunkBits | uint32(off)
}

// holding returns the position of the entry whose bytes id aliases whole,
// if id is a string the arena handed out and its chunk is still the
// arena's: a first sight's string, which Source appended before touch
// gives it a row, or a string a handoff exported.
func (a *arena) holding(id string) (uint32, bool) {
	p, k := uintptr(unsafe.Pointer(unsafe.StringData(id))), entrySize(len(id))-len(id)
	for i, c := range a.chunks {
		base := uintptr(unsafe.Pointer(unsafe.SliceData(c)))
		if p < base+uintptr(k) || p+uintptr(len(id)) > base+uintptr(len(c)) {
			continue
		}
		off := int(p-base) - k
		if n, m := binary.Uvarint(c[off : off+k]); m != k || n != uint64(len(id)) {
			return 0, false
		}
		return uint32(i)<<chunkBits | uint32(off), true
	}
	return 0, false
}

// hash returns id's hash under the server's seed and the stripe it picks.
func (s *Server) hash(id string) (uint64, *presenceShard, uint8) {
	return s.stripeOf(maphash.String(s.seed, id))
}

// stripeOf returns h with the stripe it picks.
func (s *Server) stripeOf(h uint64) (uint64, *presenceShard, uint8) {
	st := uint8(h >> (64 - presenceShardBits))
	return h, &s.shards[st], st
}

// handleOf names row p of stripe st as a decoder handle, which is never 0.
func handleOf(st uint8, p int32) hbproto.Handle {
	return hbproto.Handle(p+1)<<presenceShardBits | hbproto.Handle(st)
}

// rowAt returns the stripe and position a handle names. The position may
// be past the stripe's rows for a handle the server never issued.
func (s *Server) rowAt(h hbproto.Handle) (*presenceShard, int32) {
	return &s.shards[h&(presenceShardCount-1)], int32(h>>presenceShardBits) - 1
}

// at returns position p's row, nil past the positions the stripe has given
// out (sh.mu held). It is the one reader of a position.
func (sh *presenceShard) at(p int32) *row {
	if uint(p) < uint(len(sh.rows)) {
		return &sh.rows[p]
	}
	if p < pageRows || p >= sh.n {
		return nil
	}
	return &sh.pages[p>>pageBits-1][p&(pageRows-1)]
}

// find returns the row holding id, whose hash is h (sh.mu held).
func (sh *presenceShard) find(id string, h uint64) (int32, bool) {
	return sh.index.Find(h, func(p int32) bool { return string(sh.ids.bytes(sh.at(p).id)) == id })
}

// holds returns row p while it holds client id, nil otherwise (sh.mu held).
func (sh *presenceShard) holds(p int32, id string) *row {
	if r := sh.at(p); r != nil && r.live && string(sh.ids.bytes(r.id)) == id {
		return r
	}
	return nil
}

// first appends the ID of a source no row holds to the stripe's arena,
// adding the next chunk when the last one is full, and returns the string
// over its bytes (sh.mu held). It returns "" instead for an ID longer than
// a chunk, and while the dead bytes are as many as settle re-packs at:
// only add and remove re-pack, and until one of them gives the bytes a row
// they are dead, so the chunk first adds bounds what they grow by.
// NewServer gives each stripe its first chunk and add leaves room for one
// more ID of its own length, so a socket-per-UE client's first sight fits,
// and only a batch that fills a chunk allocates here, at Source's depth.
func (sh *presenceShard) first(b []byte) string {
	if !sh.ids.fits(len(b)) {
		if entrySize(len(b)) > chunkMax || sh.ids.bloated() {
			return ""
		}
		sh.ids.grow(len(b))
	}
	return sh.ids.str(sh.ids.put(b))
}

// grow gives out the stripe's next position (sh.mu held): an append in
// page 0, a slot of the last page past it, and a new page every pageRows.
func (sh *presenceShard) grow() int32 {
	p := sh.n
	switch {
	case p < pageRows:
		sh.rows = append(sh.rows, row{})
	case p&(pageRows-1) == 0:
		sh.pages = append(sh.pages, new([pageRows]row))
	}
	sh.n++
	return p
}

// add gives id, whose hash is h, a fresh row (sh.mu held). An id that
// aliases an entry of the stripe's arena takes that entry; any other is
// appended.
func (sh *presenceShard) add(id string, h uint64) int32 {
	var p int32
	if n := len(sh.free); n > 0 {
		p, sh.free = sh.free[n-1], sh.free[:n-1]
	} else {
		p = sh.grow()
	}
	pos, ok := sh.ids.holding(id)
	if !ok {
		sh.settle()
		if !sh.ids.fits(len(id)) {
			sh.ids.grow(len(id))
		}
		pos = sh.ids.put(unsafe.Slice(unsafe.StringData(id), len(id))) // put only reads it
	}
	sh.ids.live += entrySize(len(id))
	*sh.at(p) = row{lastSeen: unset, deadline: unset, id: pos, live: true}
	sh.index.Insert(h, p)
	if !sh.ids.fits(len(id)) {
		sh.ids.grow(len(id)) // the next first sight's room, on this shallower path
	}
	return p
}

// remove frees row p, which holds the client whose hash is h (sh.mu held).
func (sh *presenceShard) remove(h uint64, p int32) {
	sh.index.Delete(h, p)
	r := sh.at(p)
	r.live = false
	sh.ids.live -= entrySize(len(sh.ids.bytes(r.id)))
	sh.free = append(sh.free, p)
	sh.settle()
}

// settle re-packs the stripe's live IDs into fresh chunks once its dead
// arena bytes outnumber both its live ones and a chunk's worth (sh.mu
// held). remove runs it after every free and add before every append, so
// there the dead bytes are at most max(live, chunkMax); Source appends a
// first sight without it, adding a chunk of at most chunkMax only below
// that bound, so they are at most chunkMax more at any instant.
func (sh *presenceShard) settle() {
	if sh.ids.bloated() {
		sh.repack()
	}
}

// bloated reports whether the arena's dead bytes outnumber both its live
// ones and a chunk's worth.
func (a *arena) bloated() bool {
	dead := a.used - a.live
	return dead > a.live && dead > chunkMax
}

// repack copies every live row's ID into fresh chunks and points the row
// at its copy (sh.mu held). The old chunks are never written again: a
// string that aliases them keeps reading its ID.
func (sh *presenceShard) repack() {
	old := sh.ids.chunks
	sh.ids = arena{}
	for p := range sh.n {
		if r := sh.at(p); r.live {
			id := entry(old, r.id)
			if !sh.ids.fits(len(id)) {
				sh.ids.grow(len(id))
			}
			r.id = sh.ids.put(id)
		}
	}
	sh.ids.live = sh.ids.used
}

// app returns name's index in the stripe's apps, adding it on first sight
// (sh.mu held). A stripe names at most 1<<16 apps; past that a new name is
// not recorded and reads as "".
func (sh *presenceShard) app(name string) uint16 {
	if name == "" {
		return 0
	}
	if i, ok := sh.appOf[name]; ok {
		return i
	}
	if len(sh.apps) > math.MaxUint16 {
		return 0
	}
	if sh.appOf == nil {
		sh.appOf = make(map[string]uint16)
	}
	i := uint16(len(sh.apps))
	sh.apps, sh.appOf[name] = append(sh.apps, name), i
	return i
}

// lockRow returns id's row with its stripe locked, creating the row on
// first sight, and the row's handle. The row is the client's while the
// stripe is locked: a handoff may free it once it is unlocked. A row past
// page 0 never moves; one in page 0 moves when page 0 grows.
func (s *Server) lockRow(id string) (*presenceShard, *row, hbproto.Handle) {
	h, sh, st := s.hash(id)
	sh.mu.Lock()
	p, ok := sh.find(id, h)
	if !ok {
		p = sh.add(id, h)
	}
	return sh, sh.at(p), handleOf(st, p)
}

// link records that row to's source followed row from's on a connection.
func (s *Server) link(from, to hbproto.Handle) {
	sh, p := s.rowAt(from)
	sh.mu.Lock()
	if r := sh.at(p); r != nil {
		r.next = to
	}
	sh.mu.Unlock()
}

// lockFound returns id's stripe locked and id's row there, nil when the
// stripe holds none.
func (s *Server) lockFound(id string) (*presenceShard, *row) {
	h, sh, _ := s.hash(id)
	sh.mu.Lock()
	if p, ok := sh.find(id, h); ok {
		return sh, sh.at(p)
	}
	return sh, nil
}
