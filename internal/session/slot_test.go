package session

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d2dhb/internal/faultnet"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/hbproto/hbprototest"
)

// pipeNet is an in-memory network: every dial yields the client end of a
// net.Pipe and parks the server end for the test to drive.
type pipeNet struct {
	mu      sync.Mutex
	servers []net.Conn
	addrs   []string
	// gate, when non-nil, holds every dial until it is closed; entered
	// counts the dials waiting on (or past) it.
	gate    chan struct{}
	entered atomic.Int32
	// wrap decorates the client end (fault injection, write counting).
	wrap func(net.Conn) net.Conn
}

func (p *pipeNet) dial(_, addr string) (net.Conn, error) {
	p.entered.Add(1)
	if p.gate != nil {
		<-p.gate
	}
	client, server := net.Pipe()
	p.mu.Lock()
	p.servers = append(p.servers, server)
	p.addrs = append(p.addrs, addr)
	p.mu.Unlock()
	if p.wrap != nil {
		client = p.wrap(client)
	}
	return client, nil
}

// slot points s at p. Its cleanup closes the server ends first, so even a
// connection a buggy slot leaked cannot hold Close up.
func (p *pipeNet) slot(t *testing.T, s *Slot) *Slot {
	s.Dial = p.dial
	t.Cleanup(func() {
		p.mu.Lock()
		for _, c := range p.servers {
			_ = c.Close()
		}
		p.mu.Unlock()
		s.Close()
	})
	return s
}

func (p *pipeNet) server(i int) net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.servers[i]
}

func (p *pipeNet) dials() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.servers)
}

// readMsg decodes one frame from a server end.
func readMsg(t *testing.T, c net.Conn) hbproto.Message {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	msg, err := hbprototest.ReadFrame(c)
	if err != nil {
		t.Fatalf("server read: %v", err)
	}
	return msg
}

// readFrameSum reads one frame of either version off a server end and
// returns its CRC field, which a v2 ack names it by.
func readFrameSum(t *testing.T, c net.Conn) uint32 {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	head := make([]byte, 8)
	if _, err := io.ReadFull(c, head); err != nil {
		t.Fatalf("server read: %v", err)
	}
	rest := make([]byte, binary.BigEndian.Uint32(head[4:])+4)
	if _, err := io.ReadFull(c, rest); err != nil {
		t.Fatalf("server read: %v", err)
	}
	return binary.BigEndian.Uint32(rest[len(rest)-4:])
}

// expectClosed asserts the peer of c has been closed.
func expectClosed(t *testing.T, c net.Conn, what string) {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: peer still open (read err %v)", what, err)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("never happened: %s", what)
}

func heartbeat(seq uint64) *hbproto.Heartbeat {
	return &hbproto.Heartbeat{Src: "ue", Seq: seq, App: "app", Origin: time.Unix(1, 0), Expiry: time.Second, Pad: 54}
}

// stubbornConn fails every Write and holds every Read until release is
// closed — a connection whose writer has noticed the break before its
// reader has.
type stubbornConn struct {
	net.Conn
	release chan struct{}
}

func (c *stubbornConn) Write([]byte) (int, error) { return 0, errors.New("stubborn: write refused") }
func (c *stubbornConn) Read([]byte) (int, error) {
	<-c.release
	return 0, errors.New("stubborn: read broke")
}

// countConn counts Write calls.
type countConn struct {
	net.Conn
	writes *atomic.Int32
}

func (c countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

func TestSlot(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, pn *pipeNet)
	}{
		{"registers on connect and resolves the address per dial", func(t *testing.T, pn *pipeNet) {
			target := "first"
			reg := &hbproto.Register{ID: "ue", Role: hbproto.RoleUE, App: "app", Period: time.Second, Expiry: time.Second}
			s := pn.slot(t, &Slot{Addr: "ue", Resolve: func(key string) string { return key + "@" + target }, Register: reg})
			go func() {
				if dialed, err := s.Connect(); !dialed || err != nil {
					t.Errorf("Connect = %v, %v; want a fresh dial", dialed, err)
				}
			}()
			waitFor(t, func() bool { return pn.dials() == 1 }, "first dial")
			if got, ok := readMsg(t, pn.server(0)).(*hbproto.Register); !ok || got.ID != "ue" || got.Role != hbproto.RoleUE {
				t.Fatalf("first frame on a fresh connection = %+v, want the Register", got)
			}
			waitFor(t, s.Connected, "connection published after registering")
			if dialed, err := s.Connect(); dialed || err != nil {
				t.Fatalf("second Connect = %v, %v; want the cached connection", dialed, err)
			}
			// Break the link; the next dial must ask the resolver again.
			_ = pn.server(0).Close()
			waitFor(t, func() bool { return !s.Connected() }, "reader noticed the break")
			target = "moved"
			go func() { _, _ = s.Connect() }()
			waitFor(t, func() bool { return pn.dials() == 2 }, "redial")
			readMsg(t, pn.server(1))
			if pn.addrs[0] != "ue@first" || pn.addrs[1] != "ue@moved" {
				t.Fatalf("dialed %v, want [ue@first ue@moved]", pn.addrs)
			}
		}},
		{"no address", func(t *testing.T, pn *pipeNet) {
			for _, s := range []*Slot{{}, {Addr: "gone", Resolve: func(string) string { return "" }}} {
				s = pn.slot(t, s)
				if _, err := s.Send(heartbeat(1)); !errors.Is(err, ErrNoAddr) {
					t.Fatalf("Send = %v, want ErrNoAddr", err)
				}
			}
		}},
		{"closed during dial", func(t *testing.T, pn *pipeNet) {
			pn.gate = make(chan struct{})
			s := pn.slot(t, &Slot{Addr: "a"})
			errc := make(chan error, 1)
			go func() { _, err := s.Connect(); errc <- err }()
			waitFor(t, func() bool { return pn.entered.Load() == 1 }, "dial in flight")
			s.Close()
			close(pn.gate)
			if err := <-errc; !errors.Is(err, ErrClosed) {
				t.Fatalf("Connect racing Close = %v, want ErrClosed", err)
			}
			expectClosed(t, pn.server(0), "connection dialed across Close")
			if s.Connected() {
				t.Fatal("closed slot published a connection")
			}
			if _, err := s.Send(heartbeat(1)); !errors.Is(err, ErrClosed) {
				t.Fatalf("Send after Close = %v, want ErrClosed", err)
			}
		}},
		{"two racing dials keep one connection", func(t *testing.T, pn *pipeNet) {
			pn.gate = make(chan struct{})
			s := pn.slot(t, &Slot{Addr: "a"})
			var fresh atomic.Int32
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					dialed, err := s.Connect()
					if err != nil {
						t.Errorf("Connect: %v", err)
					}
					if dialed {
						fresh.Add(1)
					}
				}()
			}
			waitFor(t, func() bool { return pn.entered.Load() == 2 }, "both dials in flight")
			close(pn.gate)
			wg.Wait()
			if fresh.Load() != 1 {
				t.Fatalf("%d callers were told they installed the connection, want exactly 1", fresh.Load())
			}
			// Exactly one of the two pipes is closed; the other carries traffic.
			go func() { _, _ = s.Send(heartbeat(7)) }()
			got := make(chan uint64, 2)
			for i := 0; i < 2; i++ {
				go func(c net.Conn) {
					_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
					if msg, err := hbprototest.ReadFrame(c); err == nil {
						got <- msg.(*hbproto.Heartbeat).Seq
					} else {
						got <- 0
					}
				}(pn.server(i))
			}
			if a, b := <-got, <-got; a+b != 7 {
				t.Fatalf("server ends read seqs %d and %d, want one closed and one carrying seq 7", a, b)
			}
		}},
		{"send error drops and reports; stale reader error leaves the new connection", func(t *testing.T, pn *pipeNet) {
			first := &stubbornConn{release: make(chan struct{})}
			pn.wrap = func(c net.Conn) net.Conn {
				if pn.dials() == 1 {
					first.Conn = c
					return first
				}
				return c
			}
			nd := new(upNode)
			s := pn.slot(t, &Slot{Addr: "a", up: nd})
			var release sync.Once
			t.Cleanup(func() { release.Do(func() { close(first.release) }) }) // lets Close finish on a failed run
			if n, err := s.Send(heartbeat(1)); err == nil || n != 0 {
				t.Fatalf("Send on a refusing connection = %d, %v; want an error", n, err)
			}
			if s.Connected() {
				t.Fatal("failed Send left the broken connection cached")
			}
			expectClosed(t, pn.server(0), "connection dropped by the failed Send")
			// The next Send redials; only then does the old reader fail.
			go func() { _, _ = s.Send(heartbeat(2)) }()
			waitFor(t, func() bool { return pn.dials() == 2 }, "redial")
			if hb := readMsg(t, pn.server(1)).(*hbproto.Heartbeat); hb.Seq != 2 {
				t.Fatalf("seq %d on the new connection, want 2", hb.Seq)
			}
			release.Do(func() { close(first.release) })
			waitFor(t, nd.broke.Load, "the uplink node told about the first connection's reader")
			if !s.Connected() {
				t.Fatal("stale reader error dropped the replacement connection")
			}
			go func() { _, _ = s.Send(heartbeat(3)) }()
			if hb := readMsg(t, pn.server(1)).(*hbproto.Heartbeat); hb.Seq != 3 {
				t.Fatalf("seq %d after the stale error, want 3 on the same connection", hb.Seq)
			}
		}},
		{"a frame too big to encode leaves the connection alone", func(t *testing.T, pn *pipeNet) {
			s := pn.slot(t, &Slot{Addr: "a"})
			hb := *heartbeat(1)
			hb.Src = strings.Repeat("u", 64)
			huge := &hbproto.Batch{Relay: "r", HBs: make([]hbproto.Heartbeat, 40_000)}
			for i := range huge.HBs {
				huge.HBs[i] = hb
			}
			if n, err := s.Send(huge); !errors.Is(err, hbproto.ErrFrameTooBig) || n != 0 {
				t.Fatalf("Send of a 40 000-heartbeat Batch = %d, %v; want ErrFrameTooBig and nothing written", n, err)
			}
			if !s.Connected() {
				t.Fatal("an encode error dropped a healthy connection")
			}
			go func() { _, _ = s.Send(heartbeat(2)) }()
			if hb := readMsg(t, pn.server(0)).(*hbproto.Heartbeat); hb.Seq != 2 || pn.dials() != 1 {
				t.Fatalf("next frame seq %d after %d dials, want seq 2 on the first connection", hb.Seq, pn.dials())
			}
		}},
		{"injected reset drops the connection", func(t *testing.T, pn *pipeNet) {
			faults := faultnet.NewSchedule(1, []faultnet.Window{{Fault: faultnet.Fault{Kind: faultnet.KindReset, Prob: 1}}})
			faults.Start()
			pn.wrap = faults.WrapConn
			s := pn.slot(t, &Slot{Addr: "a"})
			if _, err := s.Connect(); err != nil {
				t.Fatal(err)
			}
			go func() { // drain the half frame the reset lets through
				buf := make([]byte, 256)
				for {
					if _, err := pn.server(0).Read(buf); err != nil {
						return
					}
				}
			}()
			errc := make(chan error, 1)
			go func() { _, err := s.Send(heartbeat(1)); errc <- err }()
			if err := <-errc; !errors.Is(err, faultnet.ErrInjectedReset) {
				t.Fatalf("Send through a resetting link = %v, want ErrInjectedReset", err)
			}
			if s.Connected() {
				t.Fatal("reset connection still cached")
			}
		}},
		{"reader hands ack and feedback refs to OnRefs and skips the rest", func(t *testing.T, pn *pipeNet) {
			type got struct {
				refs []hbproto.Ref
				at   time.Time
			}
			seen := make(chan got, 4)
			s := pn.slot(t, &Slot{Addr: "a", OnRefs: func(refs []hbproto.Ref, at time.Time) {
				seen <- got{append([]hbproto.Ref(nil), refs...), at}
			}})
			if _, err := s.Connect(); err != nil {
				t.Fatal(err)
			}
			before := time.Now()
			srv := pn.server(0)
			for _, msg := range []hbproto.Message{
				heartbeat(9), // not an acknowledgement: skipped
				&hbproto.Ack{Refs: []hbproto.Ref{{Src: "ue", Seq: 1}, {Src: "ue", Seq: 2}}},
				&hbproto.Feedback{Refs: []hbproto.Ref{{Src: "ue", Seq: 3}}},
			} {
				if err := hbprototest.WriteFrame(srv, msg); err != nil {
					t.Fatal(err)
				}
			}
			ack, fb := <-seen, <-seen
			if len(ack.refs) != 2 || ack.refs[1].Seq != 2 || len(fb.refs) != 1 || fb.refs[0].Seq != 3 {
				t.Fatalf("OnRefs saw %+v then %+v", ack.refs, fb.refs)
			}
			if ack.at.Before(before) || fb.at.Before(ack.at) {
				t.Fatalf("arrival times out of order: %v %v %v", before, ack.at, fb.at)
			}
		}},
		{"every dial decodes through a reader of its own", func(t *testing.T, pn *pipeNet) {
			seen := make(chan hbproto.Ref, 4)
			nd := new(upNode)
			s := pn.slot(t, &Slot{Addr: "a", up: nd, OnRefs: func(refs []hbproto.Ref, _ time.Time) {
				for _, ref := range refs {
					seen <- ref
				}
			}})
			// send writes one frame per seq, each heartbeat keyed by its
			// seq, reads them off the connection's server end and returns
			// the server end and the frames' CRCs.
			send := func(seqs ...uint64) (net.Conn, []uint32) {
				t.Helper()
				go func() {
					_, _ = s.SendN(len(seqs), func(i int) hbproto.Message {
						hb := heartbeat(seqs[i])
						hb.Handle = hbproto.Handle(seqs[i])
						return hb
					})
				}()
				waitFor(t, s.Connected, "dial")
				srv := pn.server(pn.dials() - 1)
				var sums []uint32
				for range seqs {
					sums = append(sums, readFrameSum(t, srv))
				}
				return srv, sums
			}
			ack := func(srv net.Conn, v byte, msg hbproto.Message) {
				t.Helper()
				if err := hbprototest.WriteFrameV(srv, v, msg); err != nil {
					t.Fatal(err)
				}
			}
			expect := func(seqs ...uint64) {
				t.Helper()
				for _, seq := range seqs {
					if got := <-seen; got != (hbproto.Ref{Src: "ue", Seq: seq, Handle: hbproto.Handle(seq)}) {
						t.Fatalf("OnRefs got %+v, want seq %d as written", got, seq)
					}
				}
			}
			srv, first := send(1, 2)
			ack(srv, hbproto.Version2, &hbproto.Ack{Frames: first[:1]})
			expect(1)
			_ = srv.Close()
			waitFor(t, func() bool { return !s.Connected() }, "broken connection dropped")
			// The second frame died with its connection: the new one's
			// acks settle what was written on it. An ack that skips a
			// frame (a write its peer never got) settles the frame it
			// names, and the skipped one is gone.
			srv, sums := send(3, 4, 5)
			ack(srv, hbproto.Version2, &hbproto.Ack{Frames: sums[:1]})
			expect(3)
			ack(srv, hbproto.Version2, &hbproto.Ack{Frames: sums[2:]})
			expect(5)
			// An ack of a frame not awaiting one — skipped, or written on
			// another connection — or of more frames than await one, and
			// a v1 ack on a v2 connection, each drop the connection and
			// hand over nothing.
			for i, bad := range []struct {
				v     byte
				frame func(sum uint32) []uint32
			}{
				{hbproto.Version2, func(uint32) []uint32 { return sums[1:2] }},
				{hbproto.Version2, func(uint32) []uint32 { return first[1:] }},
				{hbproto.Version2, func(sum uint32) []uint32 { return []uint32{sum, sum} }},
				{hbproto.Version, nil},
			} {
				nd.broke.Store(false)
				srv, sums := send(uint64(6 + i))
				msg := &hbproto.Ack{Refs: []hbproto.Ref{{Src: "ue", Seq: uint64(6 + i)}}}
				if bad.frame != nil {
					msg = &hbproto.Ack{Frames: bad.frame(sums[0])}
				}
				ack(srv, bad.v, msg)
				waitFor(t, func() bool { return !s.Connected() }, "a hostile ack's connection dropped")
				waitFor(t, nd.broke.Load, "the uplink node told about the hostile ack")
			}
			select {
			case got := <-seen:
				t.Fatalf("a hostile ack handed over %+v", got)
			default:
			}
		}},
		{"SendN composes every frame into one Write", func(t *testing.T, pn *pipeNet) {
			var writes atomic.Int32
			pn.wrap = func(c net.Conn) net.Conn { return countConn{c, &writes} }
			s := pn.slot(t, &Slot{Addr: "a"})
			reused := &hbproto.Heartbeat{}
			done := make(chan int, 1)
			go func() {
				n, err := s.SendN(3, func(i int) hbproto.Message {
					*reused = *heartbeat(uint64(10 + i))
					return reused
				})
				if err != nil {
					t.Errorf("SendN: %v", err)
				}
				done <- n
			}()
			waitFor(t, func() bool { return pn.dials() == 1 }, "dial")
			want, _ := hbproto.AppendFrame(nil, heartbeat(10))
			for i := 0; i < 3; i++ {
				if hb := readMsg(t, pn.server(0)).(*hbproto.Heartbeat); hb.Seq != uint64(10+i) {
					t.Fatalf("frame %d carries seq %d", i, hb.Seq)
				}
			}
			if n := <-done; n != 3*len(want) {
				t.Fatalf("SendN wrote %d bytes, want %d", n, 3*len(want))
			}
			if writes.Load() != 1 {
				t.Fatalf("%d Write calls for 3 frames, want 1", writes.Load())
			}
		}},
		{"Close waits for the reader and is silent about it", func(t *testing.T, pn *pipeNet) {
			nd := new(upNode)
			s := pn.slot(t, &Slot{Addr: "a", up: nd})
			if _, err := s.Connect(); err != nil {
				t.Fatal(err)
			}
			s.Close()
			s.Close() // idempotent
			expectClosed(t, pn.server(0), "connection after Close")
			if nd.broke.Load() {
				t.Fatal("a deliberate Close marked the uplink node broken")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, &pipeNet{}) })
	}
}

// TestSendZeroAllocs pins the single-frame path at zero steady-state
// allocations: the slot borrows its encode buffer from a pool, so idle
// per-UE sessions carry none.
func TestSendZeroAllocs(t *testing.T) {
	pn := &pipeNet{wrap: func(c net.Conn) net.Conn { return discardConn{c} }}
	s := pn.slot(t, &Slot{Addr: "a"})
	hb := heartbeat(1)
	if _, err := s.Send(hb); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Send(hb); err != nil {
			t.Fatal(err)
		}
	})
	// One alloc of slack: pool Get/Put may interact with GC mid-run.
	if allocs > 1 {
		t.Errorf("Send: %.1f allocs/frame, want <= 1", allocs)
	}
}

// discardConn swallows writes so a test can send without a reading peer.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }
