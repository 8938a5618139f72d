package faultnet

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjectedReset marks a connection reset injected by a reset window.
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// ErrPartitioned marks a dial refused by an active partition window.
var ErrPartitioned = errors.New("faultnet: partition active")

// Net is a network to listen and dial on: the host's (OS) or an in-memory
// Network. Its methods match the Listen and Dial hooks on relaynet configs.
type Net interface {
	Listen(network, addr string) (net.Listener, error)
	Dial(network, addr string) (net.Conn, error)
}

// OS is the host's network: net.Listen and net.Dial.
type OS struct{}

func (OS) Listen(network, addr string) (net.Listener, error) { return net.Listen(network, addr) }
func (OS) Dial(network, addr string) (net.Conn, error)       { return net.Dial(network, addr) }

// Conn applies the schedule's active write-side faults to one wrapped
// connection. Reads pass through untouched: partitions, corruption and
// resets are modeled at the sender, where the paper's feedback fallback
// has to detect them.
type Conn struct {
	net.Conn
	s *Schedule

	mu  sync.Mutex
	rng *rand.Rand
}

// WrapConn wraps c so its writes suffer the schedule's active faults. Each
// wrapped connection draws probabilistic decisions from its own RNG derived
// from the schedule seed and the wrap order, so a single-connection write
// sequence is reproducible for a fixed seed.
func (s *Schedule) WrapConn(c net.Conn) net.Conn {
	s.mu.Lock()
	s.conns++
	connSeed := s.seed*1000003 + s.conns
	s.mu.Unlock()
	return &Conn{Conn: c, s: s, rng: rand.New(rand.NewSource(connSeed))}
}

// chance draws one biased coin from the connection's RNG.
func (c *Conn) chance(p float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64() < p
}

// intn draws one bounded integer from the connection's RNG.
func (c *Conn) intn(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Intn(n)
}

// Write implements net.Conn with the schedule's active faults applied, in
// severity order: partition (swallow), reset (kill), corrupt (flip a bit),
// latency (sleep), throttle (trickle).
func (c *Conn) Write(b []byte) (int, error) {
	device := c.RemoteAddr().String()
	if _, ok := c.s.Active(KindPartition); ok {
		c.s.note(func(st *Stats) { st.DroppedSends++ }, device, KindPartition)
		return len(b), nil // swallowed: the sender only learns via missing acks
	}
	if f, ok := c.s.Active(KindReset); ok && c.chance(f.Prob) {
		half := len(b) / 2
		if half > 0 {
			_, _ = c.Conn.Write(b[:half])
		}
		_ = c.Conn.Close()
		c.s.note(func(st *Stats) { st.Resets++ }, device, KindReset)
		return half, ErrInjectedReset
	}
	buf := b
	if f, ok := c.s.Active(KindCorrupt); ok && len(b) > 0 && c.chance(f.Prob) {
		buf = append([]byte(nil), b...)
		buf[c.intn(len(buf))] ^= 1 << uint(c.intn(8))
		c.s.note(func(st *Stats) { st.Corrupted++ }, device, KindCorrupt)
	}
	if f, ok := c.s.Active(KindLatency); ok {
		d := f.Latency
		if f.Jitter > 0 {
			d += time.Duration(c.intn(int(2*f.Jitter))) - f.Jitter
		}
		if d > 0 {
			time.Sleep(d)
			c.s.note(func(st *Stats) { st.Delayed++ }, device, KindLatency)
		}
	}
	if f, ok := c.s.Active(KindThrottle); ok && f.Rate > 0 {
		c.s.note(func(st *Stats) { st.Throttled++ }, device, KindThrottle)
		return c.trickle(buf, f.Rate)
	}
	n, err := c.Conn.Write(buf)
	if n > len(b) {
		n = len(b)
	}
	return n, err
}

// trickle writes buf in chunks of a tenth of a second's worth of bytes,
// at least one, paced to rate bytes/second — the slow-loris path.
func (c *Conn) trickle(buf []byte, rate float64) (int, error) {
	chunk := max(int(rate/10), 1)
	chunkDelay := time.Duration(float64(chunk) / rate * float64(time.Second))
	written := 0
	for written < len(buf) {
		end := written + chunk
		if end > len(buf) {
			end = len(buf)
		}
		n, err := c.Conn.Write(buf[written:end])
		written += n
		if err != nil {
			return written, err
		}
		if written < len(buf) {
			time.Sleep(chunkDelay)
		}
	}
	return written, nil
}

// Listener blackholes accepts during blackhole windows and fault-wraps
// every connection it hands out.
type Listener struct {
	net.Listener
	s *Schedule
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if _, ok := l.s.Active(KindBlackhole); ok {
			l.s.note(func(st *Stats) { st.Blackholed++ }, c.RemoteAddr().String(), KindBlackhole)
			_ = c.Close()
			continue
		}
		return l.s.WrapConn(c), nil
	}
}

// On returns nw under the schedule's faults: partitions refuse its dials,
// and what its Dial and Listen return is fault-wrapped. A nil schedule
// returns nw as it is.
func (s *Schedule) On(nw Net) Net {
	if s == nil {
		return nw
	}
	return faulty{s, nw}
}

// ScheduleOf returns the schedule whose On made nw, nil if none did.
func ScheduleOf(nw Net) *Schedule {
	f, _ := nw.(faulty)
	return f.s
}

// faulty is a network under a schedule's faults.
type faulty struct {
	s  *Schedule
	nw Net
}

func (f faulty) Dial(network, addr string) (net.Conn, error) {
	if _, ok := f.s.Active(KindPartition); ok {
		f.s.note(func(st *Stats) { st.RefusedDials++ }, addr, KindPartition)
		return nil, ErrPartitioned
	}
	c, err := f.nw.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return f.s.WrapConn(c), nil
}

func (f faulty) Listen(network, addr string) (net.Listener, error) {
	ln, err := f.nw.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return &Listener{Listener: ln, s: f.s}, nil
}
