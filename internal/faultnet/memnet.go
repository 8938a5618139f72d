package faultnet

import (
	"errors"
	"net"
	"strconv"
	"sync"
)

// ErrRefused marks a dial to an address nothing listens on.
var ErrRefused = errors.New("faultnet: connection refused")

// Network is an in-memory network: Listen and Dial by address, every
// connection a net.Pipe. A pipe blocks on channels and times its deadlines
// with the runtime's timers, so inside a testing/synctest bubble the whole
// stack — server, relays, UEs — waits on the bubble's clock, which a
// loopback socket cannot. It is a Net, so a Schedule's On puts it under
// the schedule's faults as it does the host's network.
type Network struct {
	mu    sync.Mutex
	lns   map[string]*memListener
	ports int // the last port handed out
}

// NewNetwork returns a network with nothing listening.
func NewNetwork() *Network { return &Network{lns: map[string]*memListener{}, ports: 49151} }

// Listen takes addr, a host:port; port 0 picks a free port, as net.Listen
// does. An address already taken is an error.
func (n *Network) Listen(network, addr string) (net.Listener, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if port == "0" {
		addr = n.port(host)
	}
	if n.lns[addr] != nil {
		return nil, &net.OpError{Op: "listen", Net: network, Addr: memAddr{network, addr}, Err: errors.New("address already in use")}
	}
	l := &memListener{n: n, addr: memAddr{network, addr}, conns: make(chan net.Conn), done: make(chan struct{})}
	n.lns[addr] = l
	return l, nil
}

// Dial connects to the listener at addr, once it accepts; it is refused
// when nothing listens there. The dialer's end is named by a fresh port
// on the listener's host, so both ends of every connection are distinct.
func (n *Network) Dial(network, addr string) (net.Conn, error) {
	n.mu.Lock()
	l := n.lns[addr]
	var from memAddr
	if l != nil {
		host, _, _ := net.SplitHostPort(addr)
		from = memAddr{network, n.port(host)}
	}
	n.mu.Unlock()
	refused := &net.OpError{Op: "dial", Net: network, Addr: memAddr{network, addr}, Err: ErrRefused}
	if l == nil {
		return nil, refused
	}
	near, far := net.Pipe()
	select {
	case l.conns <- &memConn{Conn: far, local: l.addr, remote: from}:
		return &memConn{Conn: near, local: from, remote: l.addr}, nil
	case <-l.done:
		_, _ = near.Close(), far.Close()
		return nil, refused
	}
}

// port hands out the next port on host (n.mu held).
func (n *Network) port(host string) string {
	n.ports++
	return net.JoinHostPort(host, strconv.Itoa(n.ports))
}

// memListener is one address taken on a Network.
type memListener struct {
	n     *Network
	addr  memAddr
	conns chan net.Conn // the accepting end of each dial
	done  chan struct{} // closed by Close
	once  sync.Once
}

// Accept returns the next dialled connection, or net.ErrClosed once the
// listener is closed.
func (l *memListener) Accept() (net.Conn, error) {
	select {
	case <-l.done:
		return nil, net.ErrClosed
	default:
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close frees the address: later dials to it are refused.
func (l *memListener) Close() error {
	l.once.Do(func() {
		l.n.mu.Lock()
		delete(l.n.lns, l.addr.addr)
		l.n.mu.Unlock()
		close(l.done)
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return l.addr }

// memConn is one end of a pipe, named by the addresses of both ends.
type memConn struct {
	net.Conn
	local, remote memAddr
}

func (c *memConn) LocalAddr() net.Addr  { return c.local }
func (c *memConn) RemoteAddr() net.Addr { return c.remote }

// memAddr is an address on a Network.
type memAddr struct{ network, addr string }

func (a memAddr) Network() string { return a.network }
func (a memAddr) String() string  { return a.addr }
