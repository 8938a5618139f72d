// Package session is the client side of the live heartbeat protocol,
// stated once: a Slot is one lazily dialed, framed connection with its
// ack/feedback reader, Pending is the table of heartbeats awaiting
// acknowledgement with the paper's one-fallback-then-timeout policy, an
// Uplink is an aggregator's per-shard sender, and a Driver is the one
// clock that steps the senders — each a Unit owning its own schedule — on
// one runner goroutine. Every client on the live stack —
// relaynet.UEClient (alone, or as one of the load generator's
// socket-per-UE fleet), and the relay and loadgen's trunks through an
// Uplink each, all of which its trace replay drives too — is built from
// these pieces. Schedules, Algorithm 1 and counters stay with their
// owners.
package session

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"d2dhb/internal/hbproto"
)

// ErrClosed is returned by Connect and Send once the slot is closed.
var ErrClosed = errors.New("session: slot closed")

// ErrNoAddr is returned when the slot has no target to dial.
var ErrNoAddr = errors.New("session: no address to dial")

// ErrWrite wraps the error of a Write that failed: only that drops the
// connection.
var ErrWrite = errors.New("session: write")

// Slot holds at most one live connection to a relay or server and dials
// it on demand. Set the exported fields before first use and do not copy a
// Slot afterwards. A socket-per-UE fleet holds one per UE, so the fields
// are laid out without padding to spare. Send and Connect may be called from several goroutines;
// callbacks run on the reader goroutine and must not call Close.
type Slot struct {
	// Dial opens the connection; nil selects net.Dial. Fault-injection
	// hook (see internal/faultnet).
	Dial func(network, addr string) (net.Conn, error)
	// Addr is the target. With Resolve set it is a key instead (a client
	// or node ID) that Resolve maps to the target on every dial, so a
	// reshard redirects the next connection; "" means no target.
	Addr    string
	Resolve func(key string) string
	// Register, when non-nil, is written on every fresh connection before
	// it is published: relays feed back only to registered UE connections
	// and servers attribute batches to registered relays.
	Register *hbproto.Register
	// OnRefs receives the refs of every Ack or Feedback frame with its
	// arrival time, on the reader goroutine of the connection it arrived
	// on. The slice is reused by the next frame: consume or copy it before
	// returning. Nil drains. A ref's Handle is its connection reader's own
	// (see hbproto.Handle) unless the slot's uplink has Sources.
	OnRefs func(refs []hbproto.Ref, at time.Time)
	// up is the uplink node owning the slot, if any: its readers decode
	// through the uplink's Sources, and one that ends on an error while the
	// slot is open marks the node broken for the uplink's backoff.
	up *upNode

	mu      sync.Mutex
	conn    net.Conn
	dials   int32 // connections installed so far
	closed  bool
	readers sync.WaitGroup
}

// Connected reports whether a live connection is cached.
func (s *Slot) Connected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn != nil
}

// Connect makes sure the slot holds a connection, dialing (and
// registering) if it does not. dialed is true only for the call whose
// fresh connection was installed, so owners can count (re)connects.
func (s *Slot) Connect() (dialed bool, err error) {
	_, n, err := s.connect()
	return n > 0, err
}

// connect also returns the number of the connection it installed, else 0.
func (s *Slot) connect() (net.Conn, int, error) {
	s.mu.Lock()
	conn, closed := s.conn, s.closed
	s.mu.Unlock()
	if closed {
		return nil, 0, ErrClosed
	}
	if conn != nil {
		return conn, 0, nil
	}

	// Dial and register outside the lock: both block on the network.
	addr := s.Addr
	if s.Resolve != nil {
		addr = s.Resolve(addr)
	}
	if addr == "" {
		return nil, 0, ErrNoAddr
	}
	dial := s.Dial
	if dial == nil {
		dial = net.Dial
	}
	conn, err := dial("tcp", addr)
	if err != nil {
		return nil, 0, fmt.Errorf("session: dial %s: %w", addr, err)
	}
	if s.Register != nil {
		if _, err := writeFrames(conn, 1, func(int) hbproto.Message { return s.Register }); err != nil {
			_ = conn.Close()
			return nil, 0, fmt.Errorf("session: register with %s: %w", addr, err)
		}
	}

	s.mu.Lock()
	if s.closed || s.conn != nil {
		// Closed while dialing, or a racing Connect won: keep the winner.
		cur := s.conn
		s.mu.Unlock()
		_ = conn.Close()
		if cur == nil {
			return nil, 0, ErrClosed
		}
		return cur, 0, nil
	}
	s.conn = conn
	s.dials++
	n := int(s.dials)
	s.readers.Add(1)
	s.mu.Unlock()
	go s.read(conn)
	return conn, n, nil
}

// Send writes one frame, connecting first if needed, and returns the
// bytes written. A failed write drops the connection: the next Send
// redials. A frame that fails to encode is never written and leaves the
// connection alone.
func (s *Slot) Send(msg hbproto.Message) (int, error) {
	return s.SendN(1, func(int) hbproto.Message { return msg })
}

// SendN composes n frames — frame(i) for i in [0, n) — into one buffer
// and issues a single Write, all or nothing. frame may return the same
// reused message value each time: it is encoded before the next call.
func (s *Slot) SendN(n int, frame func(i int) hbproto.Message) (int, error) {
	conn, _, err := s.connect()
	if err != nil {
		return 0, err
	}
	written, err := writeFrames(conn, n, frame)
	if errors.Is(err, ErrWrite) {
		s.drop(conn)
	}
	return written, err
}

// framePool recycles encode buffers, so a slot holds no write buffer of
// its own: thousands of per-UE slots cost nothing while idle.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// writeFrames encodes into a pooled buffer and writes it once.
func writeFrames(conn net.Conn, n int, frame func(i int) hbproto.Message) (written int, err error) {
	bp := framePool.Get().(*[]byte)
	out := (*bp)[:0]
	for i := 0; i < n && err == nil; i++ {
		out, err = hbproto.AppendFrame(out, frame(i))
	}
	if err == nil {
		if written, err = conn.Write(out); err != nil {
			err = fmt.Errorf("%w: %w", ErrWrite, err)
		}
	}
	*bp = out[:0]
	framePool.Put(bp)
	return written, err
}

// drop forgets conn if it is still the slot's current connection, closes
// it either way, and reports whether the slot has been closed.
func (s *Slot) drop(conn net.Conn) (closed bool) {
	s.mu.Lock()
	if s.conn == conn {
		s.conn = nil
	}
	closed = s.closed
	s.mu.Unlock()
	_ = conn.Close()
	return closed
}

// read is the one client-side ack/feedback loop. Frames are handled
// inline, so the FrameReader's reused message values never outlive the
// iteration.
func (s *Slot) read(conn net.Conn) {
	defer s.readers.Done()
	var table hbproto.SourceTable
	if s.up != nil {
		table = s.up.table
	}
	fr := hbproto.NewTableReader(conn, table)
	for {
		msg, err := fr.Next()
		if err != nil {
			if closed := s.drop(conn); !closed && s.up != nil {
				s.up.broke.Store(true)
			}
			return
		}
		var refs []hbproto.Ref
		switch m := msg.(type) {
		case *hbproto.Ack:
			refs = m.Refs
		case *hbproto.Feedback:
			refs = m.Refs
		default:
			continue
		}
		if s.OnRefs != nil {
			s.OnRefs(refs, time.Now())
		}
	}
}

// Close shuts the slot for good: the connection is closed, later Connect
// and Send calls fail with ErrClosed, and Close returns once every reader
// goroutine has exited. The caller must not hold a lock the callbacks
// take.
func (s *Slot) Close() {
	s.mu.Lock()
	s.closed = true
	conn := s.conn
	s.conn = nil
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	s.readers.Wait()
}
