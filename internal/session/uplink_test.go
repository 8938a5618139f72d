package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/hbproto"
)

// shardNet is an in-memory cluster for an uplink: every dial yields a
// shardConn that records what is written to it, or fails while refuse is
// set.
type shardNet struct {
	mu     sync.Mutex
	refuse bool
	decode bool // record the Batch frames, not only the Writes
	ack    bool // answer each Write with an ack of its Batch frames
	dials  int
	conns  []*shardConn
	srcs   map[string][]string // address → sources received, in order
	frames map[string]int      // address → Batch frames received
	writes map[string]int      // address → Writes carrying a Batch
	order  []string            // addresses in the order they were written to
}

func (sn *shardNet) dial(_, addr string) (net.Conn, error) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	sn.dials++
	if sn.refuse {
		return nil, errors.New("shardNet: refused")
	}
	c := &shardConn{net: sn, addr: addr, closed: make(chan struct{}), acks: make(chan uint32, 64)} // a Write's frames: more than any test writes at once
	sn.conns = append(sn.conns, c)
	return c, nil
}

// shardConn is one connection of a shardNet. Closing it is what the uplink's
// reader sees as the shard breaking the connection.
type shardConn struct {
	net.Conn // nil: only the methods below are ever called
	net      *shardNet
	addr     string
	closed   chan struct{}
	once     sync.Once
	acks     chan uint32 // the frames Read is to acknowledge, by CRC
	ack      hbproto.Ack // Read's, reused so the shard allocates nothing
}

func (c *shardConn) Write(b []byte) (int, error) {
	sn := c.net
	if sn.ack {
		// Walk the frames: type at 3, payload length at 4, CRC last.
		for rest := b; len(rest) >= 8; {
			end := 8 + binary.BigEndian.Uint32(rest[4:8]) + 4
			if hbproto.MsgType(rest[3]) == hbproto.TypeBatch {
				select {
				case c.acks <- binary.BigEndian.Uint32(rest[end-4 : end]):
				case <-c.closed:
				}
			}
			rest = rest[end:]
		}
	}
	if !sn.decode {
		return len(b), nil
	}
	fr := hbproto.NewFrameReader(bytes.NewReader(b))
	sn.mu.Lock()
	defer sn.mu.Unlock()
	batch := false
	for {
		msg, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if m, ok := msg.(*hbproto.Batch); ok {
			batch = true
			sn.frames[c.addr]++
			for _, hb := range m.HBs {
				sn.srcs[c.addr] = append(sn.srcs[c.addr], hb.Src)
			}
		}
	}
	if batch {
		sn.writes[c.addr]++
		sn.order = append(sn.order, c.addr)
	}
	return len(b), nil
}

// Read acknowledges the next frame once there is one, in a frame that fits
// any FrameReader's buffer.
func (c *shardConn) Read(p []byte) (int, error) {
	select {
	case sum := <-c.acks:
		c.ack.Frames = append(c.ack.Frames[:0], sum)
		frame, err := hbproto.AppendFrameV(p[:0], hbproto.Version2, &c.ack)
		return len(frame), err
	case <-c.closed:
		return 0, io.EOF
	}
}
func (c *shardConn) Close() error { c.once.Do(func() { close(c.closed) }); return nil }

// newShardNet returns a recording shardNet.
func newShardNet() *shardNet {
	return &shardNet{decode: true, srcs: map[string][]string{}, frames: map[string]int{}, writes: map[string]int{}}
}

// nodeClient is a static view of n nodes "shard-i" at addresses "addr-i".
func nodeClient(t testing.TB, n int) *cluster.Client {
	t.Helper()
	nodes := make([]cluster.Node, n)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: fmt.Sprintf("shard-%d", i), Addr: fmt.Sprintf("addr-%d", i)}
	}
	cc, err := cluster.NewStaticClient(cluster.Config{Epoch: 1, Nodes: nodes}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

// testUplink is an uplink into sn over cc, closed at cleanup.
func testUplink(t testing.TB, cc *cluster.Client, sn *shardNet) *Uplink {
	t.Helper()
	u := &Uplink{
		Cluster: cc, Dial: sn.dial,
		Register: &hbproto.Register{ID: "agg", Role: hbproto.RoleRelay, App: "app", Period: time.Second, Expiry: time.Second},
		Acks:     func(string) func([]hbproto.Ref, time.Time) { return nil },
	}
	t.Cleanup(u.Close)
	return u
}

// wireOf is the wire step for keys: position i is keys[i]'s heartbeat.
func wireOf(keys []string) func(i int) hbproto.Heartbeat {
	return func(i int) hbproto.Heartbeat {
		return hbproto.Heartbeat{Src: keys[i], Seq: 1, App: "app", Origin: time.Unix(1, 0), Expiry: time.Second, Pad: 54}
	}
}

// ownerCache is an owner step that resolves each key once per view, as the
// trunk's does.
type ownerCache struct {
	view  *cluster.View
	owner []int32
}

func (oc *ownerCache) step(keys []string) func(v *cluster.View, i int) int {
	return func(v *cluster.View, i int) int {
		if v != oc.view {
			oc.view, oc.owner = v, make([]int32, len(keys))
		}
		if oc.owner[i] == 0 {
			oc.owner[i] = int32(v.Ring().OwnerIndex(keys[i])) + 1
		}
		return int(oc.owner[i]) - 1
	}
}

// TestUplinkPartitionMatchesGroupSorted: over a 1-node and a 3-node view,
// with and without an owner cache, a Send hands each node exactly the
// share Ring.GroupSorted gives it — nodes in the ring's order, positions in
// input order — and writes it as that node's Batch frames in one Write; a
// send under a new view partitions under that view.
func TestUplinkPartitionMatchesGroupSorted(t *testing.T) {
	keys := make([]string, 2*MaxBatch+5)
	for i := range keys {
		keys[i] = fmt.Sprintf("ue-%05d", (i*7919)%len(keys))
	}
	for _, nodes := range []int{1, 3} {
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d-node cached=%v", nodes, cached), func(t *testing.T) {
				sn := newShardNet()
				u := testUplink(t, nodeClient(t, 1), sn)
				owner := func(v *cluster.View, i int) int { return v.Ring().OwnerIndex(keys[i]) }
				if cached {
					owner = new(ownerCache).step(keys)
				}
				// Warm the cache under another view: the send below must
				// not route by it.
				u.Send(time.Unix(1, 0), len(keys), owner, wireOf(keys))
				sn.mu.Lock()
				sn.srcs, sn.frames, sn.writes, sn.order = map[string][]string{}, map[string]int{}, map[string]int{}, nil
				sn.mu.Unlock()
				u.Cluster = nodeClient(t, nodes)

				parts := u.Send(time.Unix(2, 0), len(keys), owner, wireOf(keys))
				want := u.Cluster.View().Ring().GroupSorted(keys)
				if len(want) != nodes {
					t.Fatalf("the keys span %d of %d nodes", len(want), nodes)
				}
				if len(parts) != nodes {
					t.Fatalf("%d parts for a %d-node ring", len(parts), nodes)
				}
				for gi, g := range want {
					p := parts[gi]
					if p.Node != g.Shard || !slices.Equal(p.Pos, g.Idxs) || p.Err != nil {
						t.Fatalf("part %d = %s %d positions (err %v), want GroupSorted's %s %d", gi, p.Node, len(p.Pos), p.Err, g.Shard, len(g.Idxs))
					}
					addr := "addr-" + g.Shard[len("shard-"):]
					var srcs []string
					for _, i := range g.Idxs {
						srcs = append(srcs, keys[i])
					}
					frames := (len(g.Idxs) + MaxBatch - 1) / MaxBatch
					if !slices.Equal(sn.srcs[addr], srcs) || sn.frames[addr] != frames || p.Frames != frames || sn.writes[addr] != 1 {
						t.Fatalf("%s received %d heartbeats in %d frames over %d writes (part says %d frames), want %d in %d over 1",
							addr, len(sn.srcs[addr]), sn.frames[addr], sn.writes[addr], p.Frames, len(srcs), frames)
					}
					if gi >= len(sn.order) || sn.order[gi] != addr {
						t.Fatalf("nodes written in order %v, want ring order", sn.order)
					}
				}
			})
		}
	}
}

// TestUplinkBackoff: the jitter is deterministic for a sender's ID and
// spreads a backoff across [d/2, 3d/2); failed dials double the backoff up
// to its ceiling and the uplink does not dial a node inside it; a broken
// connection arms the backoff from the last send over it; a dial clears it.
func TestUplinkBackoff(t *testing.T) {
	reg := &hbproto.Register{ID: "agg"}
	a, b := &Uplink{Register: reg}, &Uplink{Register: reg}
	for i := 0; i < 64; i++ {
		da, db := a.Jitter(time.Second), b.Jitter(time.Second)
		if da != db {
			t.Fatalf("same ID diverged at draw %d: %v vs %v", i, da, db)
		}
		if da < time.Second/2 || da >= 3*time.Second/2 {
			t.Fatalf("Jitter(1s) = %v outside [0.5s, 1.5s)", da)
		}
	}
	if c := (&Uplink{Register: reg}); c.Jitter(time.Second) == (&Uplink{Register: &hbproto.Register{ID: "other"}}).Jitter(time.Second) {
		t.Fatal("the jitter does not derive from the sender's ID")
	}

	sn := newShardNet()
	sn.refuse = true
	u := testUplink(t, nodeClient(t, 1), sn)
	keys := []string{"ue-1"}
	owner := func(*cluster.View, int) int { return 0 }
	send := func(at time.Time) Part { return u.Send(at, 1, owner, wireOf(keys))[0] }
	now, base := time.Unix(100, 0), defaultBackoff
	for k := 0; k < 10; k++ {
		p := send(now)
		if p.Dial != -1 || p.Err == nil || sn.dials != k+1 {
			t.Fatalf("failure %d: part dial %d err %v after %d dials, want a failed dial", k, p.Dial, p.Err, sn.dials)
		}
		nd := u.nodes["shard-0"]
		wait := min(base<<k, maxBackoff)
		if d := nd.until.Sub(now); d < wait/2 || d >= wait+wait/2 {
			t.Fatalf("failure %d: backoff %v outside [%v, %v)", k, d, wait/2, wait+wait/2)
		}
		if p := send(nd.until.Add(-time.Nanosecond)); !errors.Is(p.Err, ErrBackoff) || sn.dials != k+1 {
			t.Fatalf("failure %d: a send inside the backoff = %v after %d dials", k, p.Err, sn.dials)
		}
		now = nd.until
	}

	sn.refuse = false
	if p := send(now); p.Err != nil || p.Dial != 1 || p.Frames != 1 {
		t.Fatalf("send past the backoff = %+v, want the node's first connection", p)
	}
	sn.conns[0].Close() // the shard breaks the connection
	nd := u.nodes["shard-0"]
	for deadline := time.Now().Add(2 * time.Second); nd.slot.Connected(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the reader never noticed the break")
		}
	}
	if p := send(now.Add(base / 4)); !errors.Is(p.Err, ErrBackoff) {
		t.Fatalf("send a quarter base after a break = %+v, want the backoff armed from the last send", p)
	}
	if d := nd.until.Sub(now); d < base/2 || d >= base+base/2 {
		t.Fatalf("a break after a dial armed %v, want the base's jitter from the last send", d)
	}
	if p := send(now.Add(2 * base)); p.Err != nil || p.Dial != 2 {
		t.Fatalf("send past the break's backoff = %+v, want the second connection", p)
	}

	u.Close()
	if p := send(now.Add(3 * base)); !errors.Is(p.Err, ErrClosed) {
		t.Fatalf("send after Close = %+v, want ErrClosed", p)
	}
}

// TestUplinkSendZeroAllocs pins a warm send over a 3-node view whose
// nodes acknowledge each Write: once the nodes are dialed and the buffers
// and ack rings sized, partitioning, encoding, the one Write per node and
// settling their acks allocate nothing.
func TestUplinkSendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	sn := &shardNet{ack: true}
	u := testUplink(t, nodeClient(t, 3), sn)
	settled := make(chan int, 3)
	u.Acks = func(string) func([]hbproto.Ref, time.Time) {
		return func(refs []hbproto.Ref, _ time.Time) { settled <- len(refs) }
	}
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = fmt.Sprintf("ue-%03d", i)
	}
	owner := new(ownerCache).step(keys)
	wire := wireOf(keys)
	now := time.Unix(1, 0)
	send := func() {
		writes := 0
		for _, p := range u.Send(now, len(keys), owner, wire) {
			if p.Err != nil {
				t.Fatal(p.Err)
			}
			if len(p.Pos) > 0 {
				writes++
			}
		}
		n := 0
		for n < len(keys) && writes > 0 {
			n += <-settled
		}
		if n != len(keys) {
			t.Fatalf("%d heartbeats settled, want %d", n, len(keys))
		}
	}
	send()
	// One alloc of slack: pool Get/Put may interact with GC mid-run.
	if allocs := testing.AllocsPerRun(100, send); allocs > 1 {
		t.Errorf("a warm send of %d heartbeats to 3 nodes: %.1f allocs, want 0", len(keys), allocs)
	}
}

// TestAckRingZeroAllocs pins the ack ring on its own: once it has held the
// most it will, recording a send's frames and taking them off again, in
// any split, allocates nothing.
func TestAckRingZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	var r ackRing
	batch := &hbproto.Batch{Relay: "agg", HBs: make([]hbproto.Heartbeat, 64)}
	for i := range batch.HBs {
		batch.HBs[i] = wireOf([]string{"ue"})(0)
	}
	var buf []byte
	sums := make([]uint32, 3)
	cycle := func() {
		var err error
		if buf, err = r.encode(buf[:0], 3, func(int) hbproto.Message { batch.HBs[0].Seq++; return batch }); err != nil {
			t.Fatal(err)
		}
		for i := range sums {
			sums[i] = frameSum(buf, i)
		}
		for _, acked := range [][]uint32{sums[:1], sums[1:]} {
			if refs, err := r.take(acked); err != nil || len(refs) != len(acked)*len(batch.HBs) {
				t.Fatalf("take(%d frames) = %d refs, %v", len(acked), len(refs), err)
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a warm ring cycle: %.1f allocs, want 0", allocs)
	}
}

// frameSum is the CRC field of the i-th frame in b.
func frameSum(b []byte, i int) uint32 {
	for ; ; i-- {
		end := 8 + binary.BigEndian.Uint32(b[4:8]) + 4
		if i == 0 {
			return binary.BigEndian.Uint32(b[end-4 : end])
		}
		b = b[end:]
	}
}

// TestAckRingTakesFramesInWriteOrder: an ack settles the frames it names,
// in write order, each with the refs its heartbeats were written with;
// frames without heartbeats are not recorded; a frame the ack skips is
// dropped unsettled; an ack that names no frame, one not awaiting an ack,
// or more frames than await one is an error and settles nothing; and a
// Write whose frames fail to encode records none of them.
func TestAckRingTakesFramesInWriteOrder(t *testing.T) {
	var r ackRing
	hb := func(seq uint64) hbproto.Heartbeat {
		h := wireOf([]string{fmt.Sprint("ue-", seq)})(0)
		h.Seq, h.Handle = seq, hbproto.Handle(seq+100)
		return h
	}
	frames := []hbproto.Message{
		&hbproto.Register{ID: "agg"},
		&hbproto.Batch{Relay: "agg", HBs: []hbproto.Heartbeat{hb(1), hb(2)}},
		&hbproto.Batch{Relay: "agg"}, // carries nothing: not recorded
		&hbproto.Heartbeat{Src: "ue-3", Seq: 3, Handle: 103},
		&hbproto.Batch{Relay: "agg", HBs: []hbproto.Heartbeat{hb(4)}},
		&hbproto.Batch{Relay: "agg", HBs: []hbproto.Heartbeat{hb(5), hb(6)}},
	}
	out, err := r.encode(nil, len(frames), func(i int) hbproto.Message { return frames[i] })
	if err != nil {
		t.Fatal(err)
	}
	// The bytes are the frames in v2.
	fr := hbproto.NewFrameReader(bytes.NewReader(out))
	for range frames {
		if _, err := fr.Next(); err != nil || fr.Version() != hbproto.Version2 {
			t.Fatalf("encoded frame: %v, version %d", err, fr.Version())
		}
	}
	sum := func(i int) uint32 { return frameSum(out, i) }
	// A frame too big to encode takes back its Write's records.
	huge := &hbproto.Batch{Relay: "agg", HBs: make([]hbproto.Heartbeat, MaxBatch*64)}
	if _, err := r.encode(nil, 2, func(i int) hbproto.Message {
		if i == 0 {
			return frames[1]
		}
		return huge
	}); !errors.Is(err, hbproto.ErrFrameTooBig) {
		t.Fatalf("encoding a huge batch = %v, want ErrFrameTooBig", err)
	}
	seqs := func(refs []hbproto.Ref) (out []uint64) {
		for _, ref := range refs {
			if ref.Handle != hbproto.Handle(ref.Seq+100) || ref.Src != fmt.Sprint("ue-", ref.Seq) {
				t.Fatalf("ref %+v lost what it was written with", ref)
			}
			out = append(out, ref.Seq)
		}
		return out
	}
	if refs, err := r.take(nil); !errors.Is(err, errAckUnknown) || refs != nil {
		t.Fatalf("an ack of no frame = %v, %v; want errAckUnknown", refs, err)
	}
	if refs, err := r.take([]uint32{sum(1)}); err != nil || !slices.Equal(seqs(refs), []uint64{1, 2}) {
		t.Fatalf("ack of the first batch = %v, %v", refs, err)
	}
	// The heartbeat frame is skipped: the ack names the batch after it.
	if refs, err := r.take([]uint32{sum(4)}); err != nil || !slices.Equal(seqs(refs), []uint64{4}) {
		t.Fatalf("ack of the second batch = %v, %v", refs, err)
	}
	for _, bad := range [][]uint32{{sum(3)}, {sum(5), sum(5)}} {
		var r2 ackRing // a ring in the same state: one batch awaiting an ack
		if _, err := r2.encode(nil, 1, func(int) hbproto.Message { return frames[5] }); err != nil {
			t.Fatal(err)
		}
		if refs, err := r2.take(bad); !errors.Is(err, errAckUnknown) || refs != nil {
			t.Fatalf("ack of %08x = %v, %v; want errAckUnknown", bad, refs, err)
		}
	}
	if refs, err := r.take([]uint32{sum(5)}); err != nil || !slices.Equal(seqs(refs), []uint64{5, 6}) {
		t.Fatalf("ack of the last batch = %v, %v", refs, err)
	}
	if _, err := r.take([]uint32{sum(5)}); !errors.Is(err, errAckUnknown) {
		t.Fatalf("an ack on an empty ring = %v, want errAckUnknown", err)
	}
}
