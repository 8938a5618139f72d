package relaynet

import (
	"hash/maphash"
	"math"
	"sync"

	"d2dhb/internal/hbproto"
	"d2dhb/internal/idindex"
)

// row is everything the server keeps about one client ID: the presence
// row — the expiration timer each heartbeat resets, and maxSeq, the
// delivered sequence high-water mark (the row travels in a cluster handoff
// so the receiving shard knows what the client has already proven
// delivered) — and the routing verdict under the last cluster view it was
// checked against. A row holds no pointer, so the collector never scans a
// stripe's rows, and a client's first sight takes the stripe's next
// position instead of a heap record.
type row struct {
	// Times are UnixNano, the unit ExportPresence ships. unset marks a
	// time never written, below any instant an import can carry.
	lastSeen, deadline int64
	maxSeq             uint64
	// routed is the view epoch + 1 the misrouted verdict was computed
	// under (0: never): whether that ring assigns the client to another
	// shard. A client's next heartbeat under a newer view recomputes it.
	routed    uint64
	misrouted bool
	live      bool  // the row holds a client; false once a handoff frees it
	app       int32 // index into the stripe's apps
}

// key is the rest of a row: its client ID ("" while the row is free) and
// the row whose source followed this one on a connection last time (0:
// none yet), the table's guess for what a reader decodes after this client
// (see connState.Source) and only ever a hint. They sit in a column of
// their own, beside the pointer-free rows, and side by side: confirming a
// guess and taking the next one reads one entry.
type key struct {
	id   string
	next hbproto.Handle
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
// pageRows: a page of rows and a page of their keys, which never move.
const (
	pageBits = 8
	pageRows = 1 << pageBits
)

// page is one of a stripe's fixed pages: the rows and keys of positions
// [i·pageRows, (i+1)·pageRows) for its page number i ≥ 1.
type page struct {
	rows *[pageRows]row
	keys *[pageRows]key
}

// presenceShard is one stripe of the presence table: a column of rows, the
// key (client ID and successor link) of each, and an index over the IDs. A
// client's state lives entirely in the stripe its ID hashes to, so
// per-client ordering invariants (the timer's high-water marks) are
// preserved under the stripe lock alone.
// Rows a handoff frees are reused before the column grows, and a row's
// position never changes while it holds its client.
//
// The column grows without copying past its first page: positions below
// pageRows sit in rows and keys, grown like slices, so a stripe of a few
// clients holds no more than it needs; the rest sit in pages, added whole.
// The live stack's steady state runs no GC, so every array a column grows
// out of by copying stays in the process's peak.
type presenceShard struct {
	mu    sync.Mutex
	index idindex.Index
	rows  []row    // page 0
	keys  []key    // page 0: row → client ID and successor
	pages []page   // page i is pages[i-1]
	n     int32    // positions given out, freed ones included
	free  []int32  // freed rows, reused first
	apps  []string // app index → name; apps[0] is ""
	appOf map[string]int32
	_     [16]byte // 176 bytes of fields: keep neighbouring stripes off one cache line
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

// at returns position p's row and key, nil and nil past the positions the
// stripe has given out (sh.mu held). It is the one reader of a position.
func (sh *presenceShard) at(p int32) (*row, *key) {
	if uint(p) < uint(len(sh.rows)) {
		return &sh.rows[p], &sh.keys[p]
	}
	if p < pageRows || p >= sh.n {
		return nil, nil
	}
	pg, i := sh.pages[p>>pageBits-1], p&(pageRows-1)
	return &pg.rows[i], &pg.keys[i]
}

// find returns the row holding id, whose hash is h (sh.mu held).
func (sh *presenceShard) find(id string, h uint64) (int32, bool) {
	return sh.index.Find(h, func(p int32) bool { _, k := sh.at(p); return k.id == id })
}

// holds returns row p while it holds client id, nil otherwise (sh.mu held).
func (sh *presenceShard) holds(p int32, id string) *row {
	if r, k := sh.at(p); r != nil && r.live && k.id == id {
		return r
	}
	return nil
}

// grow gives out the stripe's next position (sh.mu held): an append in
// page 0, a slot of the last page past it, and a new page every pageRows.
func (sh *presenceShard) grow() int32 {
	p := sh.n
	switch {
	case p < pageRows:
		sh.rows, sh.keys = append(sh.rows, row{}), append(sh.keys, key{})
	case p&(pageRows-1) == 0:
		sh.pages = append(sh.pages, page{rows: new([pageRows]row), keys: new([pageRows]key)})
	}
	sh.n++
	return p
}

// add gives id, whose hash is h, a fresh row (sh.mu held).
func (sh *presenceShard) add(id string, h uint64) int32 {
	var p int32
	if n := len(sh.free); n > 0 {
		p, sh.free = sh.free[n-1], sh.free[:n-1]
	} else {
		p = sh.grow()
	}
	r, k := sh.at(p)
	*k = key{id: id}
	*r = row{lastSeen: unset, deadline: unset, live: true}
	sh.index.Insert(h, p)
	return p
}

// remove frees row p, which holds the client whose hash is h (sh.mu held).
func (sh *presenceShard) remove(h uint64, p int32) {
	sh.index.Delete(h, p)
	r, k := sh.at(p)
	r.live = false
	k.id = ""
	sh.free = append(sh.free, p)
}

// app returns name's index in the stripe's apps, adding it on first sight
// (sh.mu held).
func (sh *presenceShard) app(name string) int32 {
	if name == "" {
		return 0
	}
	if i, ok := sh.appOf[name]; ok {
		return i
	}
	if sh.appOf == nil {
		sh.appOf = make(map[string]int32)
	}
	i := int32(len(sh.apps))
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
	r, _ := sh.at(p)
	return sh, r, handleOf(st, p)
}

// link records that row to's source followed row from's on a connection.
func (s *Server) link(from, to hbproto.Handle) {
	sh, p := s.rowAt(from)
	sh.mu.Lock()
	if _, k := sh.at(p); k != nil {
		k.next = to
	}
	sh.mu.Unlock()
}

// lockFound returns id's stripe locked and id's row there, nil when the
// stripe holds none.
func (s *Server) lockFound(id string) (*presenceShard, *row) {
	h, sh, _ := s.hash(id)
	sh.mu.Lock()
	if p, ok := sh.find(id, h); ok {
		r, _ := sh.at(p)
		return sh, r
	}
	return sh, nil
}
