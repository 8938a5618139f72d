package faultnet

import (
	"errors"
	"io"
	"net"
	"testing"

	"d2dhb/internal/trace"
)

// TestNetworkRefusesWhatNobodyListensOn: a dial is refused before any
// listener takes the address and again once it has closed, and a closed
// listener's Accept returns net.ErrClosed.
func TestNetworkRefusesWhatNobodyListensOn(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Dial("tcp", "127.0.0.1:7400"); !errors.Is(err, ErrRefused) {
		t.Fatalf("dial with no listener: %v, want ErrRefused", err)
	}
	ln, err := n.Listen("tcp", "127.0.0.1:7400")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("tcp", "127.0.0.1:7400"); err == nil {
		t.Fatal("a second listener took an address already in use")
	}
	_ = ln.Close()
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept after Close: %v, want net.ErrClosed", err)
	}
	if _, err := n.Dial("tcp", "127.0.0.1:7400"); !errors.Is(err, ErrRefused) {
		t.Fatalf("dial after the listener closed: %v, want ErrRefused", err)
	}
	if ln, err = n.Listen("tcp", "127.0.0.1:7400"); err != nil {
		t.Fatalf("the address was not freed by Close: %v", err)
	}
	_ = ln.Close()
}

// TestNetworkNamesBothEnds: a listener on port 0 gets a port of its own,
// each connection's ends are named by the listener's address and a fresh
// dialer port, bytes cross, and a fault on the accepted end is attributed
// to the dialer, not to "pipe".
func TestNetworkNamesBothEnds(t *testing.T) {
	n := NewNetwork()
	var rec trace.Recorder
	s := NewSchedule(1, []Window{{Fault: Fault{Kind: KindPartition}}})
	s.SetTracer(&rec)
	a, err := s.On(n).Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := n.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.Addr().String() == b.Addr().String() {
		t.Fatalf("two listeners on port 0 share %s", a.Addr())
	}
	accepted := make(chan net.Conn, 2)
	go func() {
		for {
			c, err := a.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	var ends []net.Conn
	for range 2 {
		c, err := n.Dial("tcp", a.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		far := <-accepted
		defer far.Close()
		if c.RemoteAddr().String() != a.Addr().String() || far.LocalAddr().String() != a.Addr().String() {
			t.Fatalf("ends name the listener %s / %s, want %s", c.RemoteAddr(), far.LocalAddr(), a.Addr())
		}
		if far.RemoteAddr().String() != c.LocalAddr().String() || c.LocalAddr().String() == a.Addr().String() {
			t.Fatalf("accepted end names its dialer %s, dialer is %s", far.RemoteAddr(), c.LocalAddr())
		}
		ends = append(ends, c, far)
	}
	if ends[0].LocalAddr().String() == ends[2].LocalAddr().String() {
		t.Fatalf("two dialers share %s", ends[0].LocalAddr())
	}
	go func() { _, _ = ends[0].Write([]byte("hb")) }()
	buf := make([]byte, 2)
	if _, err := io.ReadFull(ends[1], buf); err != nil || string(buf) != "hb" {
		t.Fatalf("read %q, %v; want the dialer's bytes", buf, err)
	}
	if _, err := ends[1].Write([]byte("lost")); err != nil { // swallowed by the partition
		t.Fatal(err)
	}
	evs := rec.ByKind(trace.KindFault)
	if len(evs) != 1 || evs[0].Device != ends[0].LocalAddr().String() {
		t.Fatalf("fault events %+v, want one attributed to the dialer %s", evs, ends[0].LocalAddr())
	}
}
