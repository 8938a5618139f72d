package relaynet

import (
	"hash/maphash"
	"math"
	"sync"

	"d2dhb/internal/idindex"
	presencepkg "d2dhb/internal/presence"
)

// row is everything the server keeps about one client ID: the presence
// row (maxSeq is the delivered sequence high-water mark; the row travels
// in a cluster handoff so the receiving shard knows what the client has
// already proven delivered), the availability timer, and the routing
// verdict under the last cluster view it was checked against. A row holds
// no pointer, so a stripe's rows are one slice the collector never scans,
// and a client's first sight is an append instead of a heap record.
type row struct {
	// Times are UnixNano, the unit ExportPresence ships. unset marks a
	// time never written, below any instant an import can carry.
	lastSeen, deadline int64
	maxSeq             uint64
	timer              presencepkg.Timer
	// routed is the view epoch + 1 the misrouted verdict was computed
	// under (0: never): whether that ring assigns the client to another
	// shard. A client's next heartbeat under a newer view recomputes it.
	routed    uint64
	misrouted bool
	app       int32 // index into the stripe's apps
	// gen counts the row's incarnations: odd while the row holds a client,
	// even while it is free. A connection's cached rowRef names the
	// incarnation it resolved, so once a handoff frees the row — and
	// whichever client takes it next — the ref no longer matches.
	gen uint32
}

const unset = math.MinInt64

// rowRef is how a connection caches a client's row by decoder handle: its
// stripe, its position there and the incarnation it resolved. The zero
// value names no row (gen is odd for a live one).
type rowRef struct {
	pos    int32
	gen    uint32
	stripe uint8
}

// presenceShardBits stripes the presence table into 1<<bits stripes; the
// top bits of an ID's hash pick its stripe, the low ones its bucket in the
// stripe's index. 64 stripes keep contention negligible even for thousands
// of concurrent handler goroutines.
const (
	presenceShardBits  = 6
	presenceShardCount = 1 << presenceShardBits
)

// presenceShard is one stripe of the presence table: a column of rows, the
// client ID of each, and an index over the IDs. A client's state lives
// entirely in the stripe its ID hashes to, so per-client ordering
// invariants (timer deliveries) are preserved under the stripe lock alone.
// Rows a handoff frees are reused before the column grows, and a row's
// position never changes while it holds its client.
type presenceShard struct {
	mu    sync.Mutex
	index idindex.Index
	rows  []row
	ids   []string // row → client ID
	free  []int32  // freed rows, reused first
	apps  []string // app index → name; apps[0] is ""
	appOf map[string]int32
	_     [48]byte // 144 bytes of fields: keep neighbouring stripes off one cache line
}

// hash returns id's hash under the server's seed and the stripe it picks.
func (s *Server) hash(id string) (uint64, *presenceShard, uint8) {
	h := maphash.String(s.seed, id)
	st := uint8(h >> (64 - presenceShardBits))
	return h, &s.shards[st], st
}

// find returns the row holding id, whose hash is h (sh.mu held).
func (sh *presenceShard) find(id string, h uint64) (int32, bool) {
	return sh.index.Find(h, func(p int32) bool { return sh.ids[p] == id })
}

// add gives id, whose hash is h, a fresh row (sh.mu held).
func (sh *presenceShard) add(id string, h uint64) int32 {
	var p int32
	if n := len(sh.free); n > 0 {
		p, sh.free = sh.free[n-1], sh.free[:n-1]
		sh.ids[p] = id
	} else {
		p = int32(len(sh.rows))
		sh.rows, sh.ids = append(sh.rows, row{}), append(sh.ids, id)
	}
	r := &sh.rows[p]
	*r = row{lastSeen: unset, deadline: unset, gen: r.gen + 1}
	sh.index.Insert(h, p)
	return p
}

// remove frees row p, which holds the client whose hash is h (sh.mu held).
func (sh *presenceShard) remove(h uint64, p int32) {
	sh.index.Delete(h, p)
	sh.rows[p].gen++
	sh.ids[p] = ""
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
// first sight, and a ref to cache it by. The row pointer is valid until
// the stripe is unlocked.
func (s *Server) lockRow(id string) (*presenceShard, *row, rowRef) {
	h, sh, st := s.hash(id)
	sh.mu.Lock()
	p, ok := sh.find(id, h)
	if !ok {
		p = sh.add(id, h)
	}
	r := &sh.rows[p]
	return sh, r, rowRef{pos: p, gen: r.gen, stripe: st}
}

// lockFound returns id's stripe locked and id's row there, nil when the
// stripe holds none.
func (s *Server) lockFound(id string) (*presenceShard, *row) {
	h, sh, _ := s.hash(id)
	sh.mu.Lock()
	if p, ok := sh.find(id, h); ok {
		return sh, &sh.rows[p]
	}
	return sh, nil
}
