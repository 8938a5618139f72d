package session

import (
	"cmp"
	"errors"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/hbproto"
)

// MaxBatch caps the heartbeats of one Batch frame. It holds only while one
// heartbeat encodes to under 256 B (34 B measured): 4096 of them then fit
// in hbproto.MaxFrameSize (1 MiB).
const MaxBatch = 4096

// A node's redial backoff doubles per failure from defaultBackoff up to
// maxBackoff: a ceiling, not an attempt budget, as the owner retries for
// as long as it runs.
const defaultBackoff, maxBackoff = 50 * time.Millisecond, 5 * time.Second

// ErrBackoff is a Part's error while its node's redial backoff runs.
var ErrBackoff = errors.New("session: node in redial backoff")

// Uplink is an aggregator's per-shard sender — arXiv:1502.01708's
// trunking, stated once for the relay and the load generator's trunk. A
// Send splits a batch by owning node under one cluster view, so it never
// mixes two epochs, and writes each node's share over that node's lazily
// dialed Slot in Batch frames of at most MaxBatch heartbeats and one
// Write. A node that cannot be reached loses only its share, and is not
// redialed before its capped, seeded, jittered backoff runs out. Set the
// fields before the first Send; only one goroutine at a time may Send.
type Uplink struct {
	// Cluster routes every Send and resolves every dial.
	Cluster *cluster.Client
	// Dial opens node connections; nil selects net.Dial.
	Dial func(network, addr string) (net.Conn, error)
	// Register is written on every fresh connection; its ID names the
	// sender in every Batch.
	Register *hbproto.Register
	// Acks returns the OnRefs of a node's slot, once per node. A node's
	// connections speak hbproto v2, whose acks name frames, so the refs
	// are the heartbeats the slot wrote in them, as wire made them: Src,
	// Seq and Handle, which the sender may use as its own key (it is never
	// on the wire).
	Acks func(node string) func(refs []hbproto.Ref, at time.Time)

	mu     sync.Mutex
	nodes  map[string]*upNode
	closed bool

	// Owned by the sending goroutine.
	rng   *rand.Rand
	parts []Part
	hbs   []hbproto.Heartbeat
	msg   hbproto.Batch
}

// upNode is one node's slot and redial state. Only Send touches the
// backoff fields; the slot's reader only raises broke.
type upNode struct {
	slot  Slot
	ring  *ackRing      // the slot's current connection's, under slot.mu
	broke atomic.Bool   // a connection broke since Send last looked
	sent  time.Time     // the last Send that wrote to the node
	until time.Time     // no dial before this instant
	wait  time.Duration // the next backoff before jitter; 0 = the base
}

// Part is one node's share of a Send. Dial numbers the connection the Send
// installed to the node (1 for its first): -1 if its dial failed, 0 if it
// dialed none. Err is nil once the share's Frames are on the wire: else
// ErrBackoff, ErrClosed, the dial's error or one wrapping ErrWrite.
type Part struct {
	Node          string // the ring node's ID
	Pos           []int  // the batch positions the node owns, in input order
	Dial          int
	Frames, Bytes int // the share's Batch frames, and the bytes written
	Err           error
}

// Send writes positions [0, n) of a batch to the nodes that own them under
// the cluster's current view: owner(view, i) is position i's node index in
// the view's ring and wire(i) its wire form. The backoff runs on now, the
// owner's clock. The parts come back one per ring node, in ring order —
// Ring.GroupSorted's partition — and are reused by the next Send.
func (u *Uplink) Send(now time.Time, n int, owner func(v *cluster.View, i int) int, wire func(i int) hbproto.Heartbeat) []Part {
	view := u.Cluster.View()
	ring := view.Ring()
	for len(u.parts) < ring.Size() {
		u.parts = append(u.parts, Part{})
	}
	parts := u.parts[:ring.Size()]
	for ni := range parts {
		parts[ni] = Part{Node: ring.Node(ni), Pos: parts[ni].Pos[:0]}
	}
	for i := 0; i < n; i++ {
		ni := owner(view, i)
		parts[ni].Pos = append(parts[ni].Pos, i)
	}
	for ni := range parts {
		if len(parts[ni].Pos) > 0 {
			u.send(now, &parts[ni], wire)
		}
	}
	return parts
}

// send writes one part, dialing its node first if it has no connection and
// is out of backoff.
func (u *Uplink) send(now time.Time, p *Part, wire func(i int) hbproto.Heartbeat) {
	nd := u.node(p.Node)
	if nd == nil {
		p.Err = ErrClosed
		return
	}
	if !nd.slot.Connected() {
		// A broken connection backs off from the last send over it.
		if nd.broke.Swap(false) {
			u.arm(nd, nd.sent)
		}
		if now.Before(nd.until) {
			p.Err = ErrBackoff
			return
		}
		var err error
		if _, _, p.Dial, err = nd.slot.connect(); err != nil {
			p.Dial, p.Err = -1, err
			u.arm(nd, now)
			return
		}
		nd.wait = 0
	}
	nd.sent = now
	p.Frames = (len(p.Pos) + MaxBatch - 1) / MaxBatch
	p.Bytes, p.Err = nd.slot.SendN(p.Frames, func(f int) hbproto.Message {
		chunk := p.Pos[f*MaxBatch : min((f+1)*MaxBatch, len(p.Pos))]
		if cap(u.hbs) < len(chunk) {
			u.hbs = make([]hbproto.Heartbeat, len(chunk))
		}
		u.msg.Relay, u.msg.HBs = u.Register.ID, u.hbs[:len(chunk)]
		for j, i := range chunk {
			u.msg.HBs[j] = wire(i)
		}
		return &u.msg
	})
}

// node returns a node's state, making its slot on first use; nil once the
// uplink is closed. The slot resolves the node's address through the
// current view on every dial, so a moved shard is found where it now is.
func (u *Uplink) node(id string) *upNode {
	u.mu.Lock()
	nd, closed := u.nodes[id], u.closed
	u.mu.Unlock()
	if nd != nil || closed {
		return nd
	}
	nd = &upNode{slot: Slot{Dial: u.Dial, Addr: id, Resolve: u.Cluster.NodeAddr, Register: u.Register, OnRefs: u.Acks(id)}}
	nd.slot.up = nd
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return nil
	}
	if u.nodes == nil {
		u.nodes = make(map[string]*upNode)
	}
	u.nodes[id] = nd
	return nd
}

// arm starts a node's backoff at instant at and doubles the next one.
func (u *Uplink) arm(nd *upNode, at time.Time) {
	b := cmp.Or(nd.wait, defaultBackoff)
	nd.until = at.Add(u.Jitter(b))
	nd.wait = min(2*b, maxBackoff)
}

// Jitter spreads a backoff d across [d/2, 3d/2) with an RNG seeded from
// Register.ID, so senders that lose the same shard do not redial it in
// doubling lockstep. Only the sending goroutine may call it.
func (u *Uplink) Jitter(d time.Duration) time.Duration {
	if u.rng == nil {
		h := fnv.New64a()
		_, _ = h.Write([]byte(u.Register.ID)) // never fails
		u.rng = rand.New(rand.NewSource(int64(h.Sum64())))
	}
	return time.Duration(float64(d) * (0.5 + u.rng.Float64()))
}

// Close closes every node's slot and returns once their readers have
// exited; later Sends fail every part with ErrClosed. The caller must not
// hold a lock the Acks handlers take.
func (u *Uplink) Close() {
	u.mu.Lock()
	u.closed = true
	nodes := u.nodes
	u.nodes = nil
	u.mu.Unlock()
	for _, nd := range nodes {
		nd.slot.Close()
	}
}
