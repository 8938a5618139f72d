package faultnet

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"d2dhb/internal/trace"
)

// sinkConn is a minimal net.Conn recording everything written to it.
type sinkConn struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	closed bool
}

type fakeAddr struct{}

func (fakeAddr) Network() string { return "fake" }
func (fakeAddr) String() string  { return "fake:0" }

func (c *sinkConn) Read(b []byte) (int, error) { return 0, net.ErrClosed }
func (c *sinkConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	return c.buf.Write(b)
}
func (c *sinkConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}
func (c *sinkConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}
func (c *sinkConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}
func (c *sinkConn) LocalAddr() net.Addr              { return fakeAddr{} }
func (c *sinkConn) RemoteAddr() net.Addr             { return fakeAddr{} }
func (c *sinkConn) SetDeadline(time.Time) error      { return nil }
func (c *sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

func TestPartitionSwallowsWrites(t *testing.T) {
	var rec trace.Recorder
	s := NewSchedule(1, []Window{{Fault: Fault{Kind: KindPartition}}})
	s.SetTracer(&rec)
	sink := &sinkConn{}
	conn := s.WrapConn(sink)
	n, err := conn.Write([]byte("hello"))
	if n != 5 || err != nil {
		t.Fatalf("partitioned write = (%d, %v), want (5, nil)", n, err)
	}
	if got := sink.bytes(); len(got) != 0 {
		t.Fatalf("bytes leaked through partition: %q", got)
	}
	if st := s.Stats(); st.DroppedSends != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(rec.ByKind(trace.KindFault)) != 1 || len(rec.ByKind(trace.KindFaultWindow)) != 1 {
		t.Fatalf("trace events = %v", rec.String())
	}
}

func TestResetKillsConnMidWrite(t *testing.T) {
	s := NewSchedule(1, []Window{{Fault: Fault{Kind: KindReset, Prob: 1}}})
	sink := &sinkConn{}
	conn := s.WrapConn(sink)
	payload := []byte("0123456789")
	n, err := conn.Write(payload)
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("err = %v, want ErrInjectedReset", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("n = %d, want half of %d", n, len(payload))
	}
	if !sink.isClosed() {
		t.Fatal("underlying conn not closed by reset")
	}
	if got := sink.bytes(); !bytes.Equal(got, payload[:len(payload)/2]) {
		t.Fatalf("half-write = %q", got)
	}
	if st := s.Stats(); st.Resets != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCorruptFlipsOneBitDeterministically(t *testing.T) {
	payload := []byte("heartbeat frame payload")
	run := func(seed int64) []byte {
		s := NewSchedule(seed, []Window{{Fault: Fault{Kind: KindCorrupt, Prob: 1}}})
		sink := &sinkConn{}
		conn := s.WrapConn(sink)
		if _, err := conn.Write(payload); err != nil {
			t.Fatalf("write: %v", err)
		}
		return sink.bytes()
	}
	a, b := run(5), run(5)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed corrupted differently:\n%q\n%q", a, b)
	}
	if bytes.Equal(a, payload) {
		t.Fatal("corruption did not alter the payload")
	}
	// Exactly one bit differs.
	diffBits := 0
	for i := range payload {
		x := a[i] ^ payload[i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("flipped %d bits, want exactly 1", diffBits)
	}
}

func TestLatencyDelaysWrite(t *testing.T) {
	s := NewSchedule(1, []Window{{Fault: Fault{Kind: KindLatency, Latency: 50 * time.Millisecond}}})
	sink := &sinkConn{}
	conn := s.WrapConn(sink)
	start := time.Now()
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("write returned after %v, want ≥ ~50ms", elapsed)
	}
	if st := s.Stats(); st.Delayed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestThrottleTricklesWrite(t *testing.T) {
	// 100 B/s → 10-byte chunks every 100 ms; 30 bytes need ≥ 2 sleeps.
	s := NewSchedule(1, []Window{{Fault: Fault{Kind: KindThrottle, Rate: 100}}})
	sink := &sinkConn{}
	conn := s.WrapConn(sink)
	payload := bytes.Repeat([]byte("a"), 30)
	start := time.Now()
	n, err := conn.Write(payload)
	if n != 30 || err != nil {
		t.Fatalf("throttled write = (%d, %v)", n, err)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("trickle took %v, want ≥ ~200ms", elapsed)
	}
	if !bytes.Equal(sink.bytes(), payload) {
		t.Fatal("throttled payload mangled")
	}
}

func TestDialRefusedDuringPartition(t *testing.T) {
	s := NewSchedule(1, []Window{{Fault: Fault{Kind: KindPartition}}})
	if _, err := s.On(OS{}).Dial("tcp", "127.0.0.1:1"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("dial err = %v, want ErrPartitioned", err)
	}
	if st := s.Stats(); st.RefusedDials != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestListenerBlackholesAccepts(t *testing.T) {
	s := NewSchedule(1, []Window{{Fault: Fault{Kind: KindBlackhole}}})
	ln, err := s.On(OS{}).Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	acceptErr := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		acceptErr <- err
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// The accept side closes immediately: the client sees EOF.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("blackholed connection delivered data")
	}

	_ = ln.Close()
	if err := <-acceptErr; err == nil {
		t.Fatal("accept returned a connection through an always-on blackhole")
	}
	if st := s.Stats(); st.Blackholed < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCleanPassThrough(t *testing.T) {
	// No active windows: bytes flow untouched and nothing is counted.
	s := NewSchedule(1, []Window{
		{From: time.Hour, To: 2 * time.Hour, Fault: Fault{Kind: KindPartition}},
	})
	sink := &sinkConn{}
	conn := s.WrapConn(sink)
	payload := []byte("clean")
	n, err := conn.Write(payload)
	if n != len(payload) || err != nil {
		t.Fatalf("write = (%d, %v)", n, err)
	}
	if !bytes.Equal(sink.bytes(), payload) {
		t.Fatal("payload altered without an active fault")
	}
	if st := (Stats{}); s.Stats() != st {
		t.Fatalf("stats = %+v, want zero", s.Stats())
	}
}

// TestScheduleOnNetwork: a nil schedule leaves a network as it is, and
// ScheduleOf finds the schedule a network is under, or none.
func TestScheduleOnNetwork(t *testing.T) {
	var none *Schedule
	if nw := none.On(OS{}); nw != (OS{}) || ScheduleOf(nw) != nil {
		t.Fatalf("a nil schedule on the host's network = %#v", nw)
	}
	s := NewSchedule(1, nil)
	if got := ScheduleOf(s.On(NewNetwork())); got != s {
		t.Fatalf("ScheduleOf = %p, want %p", got, s)
	}
}
