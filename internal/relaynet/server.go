// Package relaynet implements the heartbeat relaying framework as a real
// networked system: an IM presence server, a relay agent running the
// Algorithm 1 scheduler against wall-clock time, and a UE client with
// feedback tracking and direct fallback. Components speak hbproto over any
// net.Conn; in tests and examples the "D2D" hop is loopback TCP.
package relaynet

import (
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/telemetry"
	"d2dhb/internal/trace"
)

// ServerStats aggregates a presence server's observable behaviour.
type ServerStats struct {
	Connections       int
	Registers         int
	HeartbeatsDirect  int
	HeartbeatsRelayed int
	Batches           int
	// Late counts heartbeats that arrived past their origin+expiry
	// deadline: the sender had already flapped offline in between (the
	// paper's lost "effective heartbeat messages").
	Late int
	// ProtocolErrors counts connections dropped for malformed frames or
	// messages a client may not send (each also emits a conn-drop trace
	// event).
	ProtocolErrors int
	// IdleDrops counts connections reaped by the idle read deadline.
	IdleDrops int
	// Misrouted counts heartbeats delivered to this shard although the
	// cluster ring assigns their source to another shard (stale routing
	// epoch somewhere). Always zero outside cluster mode.
	Misrouted int
	// IDGuessHits counts source IDs the connections resolved to their
	// client's presence row by the successor guess — the row that followed
	// the connection's previous source last time — and IDGuessMisses those
	// they hashed into the presence stripes instead: together they say
	// whether this server's traffic repeats in order.
	IDGuessHits   int
	IDGuessMisses int
}

// statsStripeCount stripes the delivery counters. Each connection is bound
// to one stripe round-robin by accept order, so handler updates are atomic
// adds on (mostly) private cache lines and Stats sums a fixed 64 blocks —
// no lock, no sweep over the live-connection table.
const statsStripeCount = 64

// connCounters is one stats stripe. The padding keeps neighbouring stripes
// on separate cache lines so connections on different stripes never false-
// share.
type connCounters struct {
	registers   atomic.Int64
	direct      atomic.Int64
	relayed     atomic.Int64
	batches     atomic.Int64
	late        atomic.Int64
	guessHits   atomic.Int64
	guessMisses atomic.Int64
	_           [72]byte
}

// Server is the IM presence server: it tracks per-client expiration timers
// that heartbeats reset (Section II-A), and no availability or flap
// accounting, which is the simulator's (presence.Tracker). Presence state
// is striped across presenceShardCount lock shards keyed by client ID, so
// handlers for different clients proceed in parallel.
type Server struct {
	mu      sync.Mutex // lifecycle + connection registry
	ln      net.Listener
	conns   map[net.Conn]struct{}
	tracer  trace.Tracer
	started bool
	closed  bool

	seed    maphash.Seed // client ID hashes: stripe and bucket
	shards  [presenceShardCount]presenceShard
	stripes [statsStripeCount]connCounters

	accepted       atomic.Int64
	protocolErrors atomic.Int64
	idleDrops      atomic.Int64
	misrouted      atomic.Int64

	// Cluster mode (see cluster.go): selfID is this shard's ring identity,
	// clusterClient tracks the epoch-versioned config. Both set before
	// Start.
	selfID        string
	clusterClient *cluster.Client

	ins serverInstruments

	// idleTimeout > 0 arms a per-connection read deadline so half-dead
	// clients are reaped instead of pinning handler goroutines forever.
	idleTimeout time.Duration

	wg sync.WaitGroup
}

// NewServer returns an unstarted server.
func NewServer() *Server {
	s := &Server{conns: make(map[net.Conn]struct{}), seed: maphash.MakeSeed()}
	for i := range s.shards {
		s.shards[i].apps = []string{""}
		s.shards[i].ids.grow(0) // its first chunk: see presenceShard.first
	}
	return s
}

// SetTracer attaches an event tracer; call before Start. Real-stack events
// carry Unix instants in At (trace.Unix: components are independent
// processes with no shared virtual clock).
func (s *Server) SetTracer(tr trace.Tracer) { s.tracer = tr }

// serverInstruments is the server's live-telemetry handle block. Every
// handle is nil (a no-op) until SetTelemetry registers real ones, so the
// hot path pays one nil check per update when telemetry is off.
type serverInstruments struct {
	frames    *telemetry.Counter
	batchSize *telemetry.Histogram
	// Wire-path coalescing: ack flushes (one Write each), refs per flush
	// (the syscall batch size), and bytes written on the ack path.
	ackFlushes  *telemetry.Counter
	ackRefs     *telemetry.Histogram
	ackBytesOut *telemetry.Counter
}

// SetTelemetry registers the server's runtime metrics in reg; call before
// Start. Counters and the batch-size histogram update lock-free on the hot
// path. What Stats already counts, and presence occupancy, are read at
// scrape time through functions, so the handlers never count an event
// twice or mirror map sizes.
func (s *Server) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.ins = serverInstruments{
		frames:      reg.Counter("relaynet_server_frames_total"),
		batchSize:   reg.Histogram("relaynet_server_batch_size", "msgs", 8),
		ackFlushes:  reg.Counter("relaynet_server_ack_flushes_total"),
		ackRefs:     reg.Histogram("relaynet_server_ack_refs_per_flush", "refs", 8),
		ackBytesOut: reg.Counter("relaynet_server_ack_bytes_total"),
	}
	stat := func(name string, field func(ServerStats) int, labels ...telemetry.Label) {
		reg.CounterFunc(name, func() float64 { return float64(field(s.Stats())) }, labels...)
	}
	stat("relaynet_server_accepts_total", func(st ServerStats) int { return st.Connections })
	stat("relaynet_server_drops_total", func(st ServerStats) int { return st.ProtocolErrors }, telemetry.L("reason", "protocol"))
	stat("relaynet_server_drops_total", func(st ServerStats) int { return st.IdleDrops }, telemetry.L("reason", "idle"))
	stat("relaynet_server_late_heartbeats_total", func(st ServerStats) int { return st.Late })
	stat("relaynet_server_misrouted_frames_total", func(st ServerStats) int { return st.Misrouted })
	stat("relaynet_server_id_guess_hits_total", func(st ServerStats) int { return st.IDGuessHits })
	stat("relaynet_server_id_guess_misses_total", func(st ServerStats) int { return st.IDGuessMisses })
	reg.GaugeFunc("relaynet_server_open_connections", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.conns))
	})
	reg.GaugeFunc("relaynet_server_presence_clients", func() float64 {
		total, _ := s.presenceOccupancy()
		return float64(total)
	})
	reg.GaugeFunc("relaynet_server_presence_shard_max", func() float64 {
		_, max := s.presenceOccupancy()
		return float64(max)
	})
}

// presenceOccupancy samples the presence table shard by shard: total
// tracked clients and the largest single shard (hash-imbalance indicator).
func (s *Server) presenceOccupancy() (total, maxShard int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n := sh.index.Len()
		sh.mu.Unlock()
		total += n
		if n > maxShard {
			maxShard = n
		}
	}
	return total, maxShard
}

// SetIdleTimeout arms a per-connection read deadline: a connection that
// stays silent for d is dropped and counted in IdleDrops. Zero (the
// default) disables reaping. Call before Start.
func (s *Server) SetIdleTimeout(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idleTimeout = d
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// serves until Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("relaynet: listen: %w", err)
	}
	if err := s.StartListener(ln); err != nil {
		_ = ln.Close()
		return err
	}
	return nil
}

// StartListener serves on a caller-provided listener (e.g. one wrapped by
// internal/faultnet to inject accept-time and per-connection faults) until
// Shutdown, which closes it.
func (s *Server) StartListener(ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("relaynet: server already started")
	}
	s.ln = ln
	s.started = true
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the listening address.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown stops accepting, closes every connection and waits for all
// handler goroutines to exit.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed || !s.started {
		s.mu.Unlock()
		return
	}
	s.closed = true
	_ = s.ln.Close()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats returns a snapshot of the counters by summing the fixed stats
// stripes — no lock and no sweep over live connections, so it is cheap
// enough to poll from a telemetry scraper at any fleet size (see
// BenchmarkServerStats).
func (s *Server) Stats() ServerStats {
	var st ServerStats
	for i := range s.stripes {
		cc := &s.stripes[i]
		st.Registers += int(cc.registers.Load())
		st.HeartbeatsDirect += int(cc.direct.Load())
		st.HeartbeatsRelayed += int(cc.relayed.Load())
		st.Batches += int(cc.batches.Load())
		st.Late += int(cc.late.Load())
		st.IDGuessHits += int(cc.guessHits.Load())
		st.IDGuessMisses += int(cc.guessMisses.Load())
	}
	st.Connections = int(s.accepted.Load())
	st.ProtocolErrors = int(s.protocolErrors.Load())
	st.IdleDrops = int(s.idleDrops.Load())
	st.Misrouted = int(s.misrouted.Load())
	return st
}

// Online reports whether the client's expiration timer is still running at
// instant now.
func (s *Server) Online(id string, now time.Time) bool {
	sh, r := s.lockFound(id)
	defer sh.mu.Unlock()
	return r != nil && now.UnixNano() < r.deadline
}

// OnlineCount returns how many clients are online at instant now.
func (s *Server) OnlineCount(now time.Time) int {
	n, at := 0, now.UnixNano()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for p := range sh.n {
			if r := sh.at(p); r.live && at < r.deadline {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		n := s.accepted.Add(1)
		s.wg.Add(1)
		s.mu.Unlock()
		// Bind the connection to a stats stripe round-robin by accept order.
		cc := &s.stripes[int(n-1)%statsStripeCount]
		go s.handleConn(conn, cc)
	}
}

// Ack-aggregator bounds. While a client keeps pipelining frames the
// server defers acks, composing one combined Ack frame (one Write) per
// drained burst; a size cap bounds frame growth and an age cap bounds the
// extra latency a continuously-pipelining peer can see.
const (
	ackAggMaxRefs = 4096
	ackAggMaxAge  = 2 * time.Millisecond
)

// ackAggregator coalesces the acks owed on one connection into combined
// frames, in the connection's version: a v1 Ack lists the refs, whose IDs
// alias the presence stripes' arenas (see connState.Source), so deferring
// them does not pin payload scratch; a v2 Ack names the heartbeat-carrying
// frames they came in by their CRCs.
type ackAggregator struct {
	v       byte          // the connection's version
	sum     uint32        // the CRC field of the frame being handled
	refs    []hbproto.Ref // v1: the refs owed
	frames  []uint32      // v2: the CRCs of the frames owed
	n       int           // heartbeats owed
	buf     []byte        // reusable encode buffer
	ack     hbproto.Ack
	firstAt time.Time // when the oldest deferred ref was enqueued
}

// add owes an ack for one heartbeat; first marks the first of its frame's.
func (a *ackAggregator) add(hb *hbproto.Heartbeat, first bool, now time.Time) {
	if a.n == 0 {
		a.firstAt = now
	}
	a.n++
	switch {
	case a.v == hbproto.Version:
		a.refs = append(a.refs, hbproto.Ref{Src: hb.Src, Seq: hb.Seq})
	case first:
		a.frames = append(a.frames, a.sum)
	}
}

// shouldFlush reports whether the pending acks must go out now: the peer
// has nothing more pipelined, the size cap is hit, or the oldest deferred
// ack is about to exceed the latency bound.
func (a *ackAggregator) shouldFlush(buffered int, now time.Time) bool {
	if a.n == 0 {
		return false
	}
	return buffered == 0 || a.n >= ackAggMaxRefs || now.Sub(a.firstAt) >= ackAggMaxAge
}

// flushAcks writes all pending acks as one frame. The write has no
// deadline: a client that stops reading blocks its handler.
func (s *Server) flushAcks(conn net.Conn, agg *ackAggregator) error {
	if agg.n == 0 {
		return nil
	}
	agg.ack.Refs, agg.ack.Frames = agg.refs, agg.frames
	out, err := hbproto.AppendFrameV(agg.buf[:0], agg.v, &agg.ack)
	agg.buf = out[:0]
	if err != nil {
		return err
	}
	if _, err = conn.Write(out); err != nil {
		return err
	}
	s.ins.ackFlushes.Inc()
	s.ins.ackRefs.Record(uint64(agg.n))
	s.ins.ackBytesOut.Add(uint64(len(out)))
	agg.refs, agg.frames, agg.n = agg.refs[:0], agg.frames[:0], 0
	return nil
}

// connState is what one connection's handler goroutine owns. It is also
// the connection's hbproto.SourceTable: its reader resolves every source ID
// to the client's presence row and interns none, so the presence stripes
// are the one ID table a connection uses. That puts it on the heap, beside
// other connections' states, and its handler writes it for every
// heartbeat: the pads keep their cache lines apart.
type connState struct {
	_   [64]byte
	s   *Server
	cc  *connCounters
	agg ackAggregator
	// prev is the row of the last heartbeat touched, and prevKnown whether
	// the reader had named that row when it decoded it: what touch needs
	// to link each row after the one before it (see touch).
	prev      hbproto.Handle
	prevKnown bool
	// from is the row Source last resolved, and guess the link that row
	// held then: the next source's guess, read under the lock Source
	// already held, so a guess costs one stripe lock.
	from, guess hbproto.Handle
	// guessHits/guessMisses count Source's outcomes; plain fields, flushed
	// into the connection's stats stripe once per frame.
	guessHits, guessMisses uint64
	_                      [64]byte
}

func (s *Server) newConnState(cc *connCounters) *connState { return &connState{s: s, cc: cc} }

// Source implements hbproto.SourceTable over the presence stripes: the
// handle names the client's row (stripe and position), and the string
// aliases the client's ID in the stripe's arena. It first tries the row
// that followed after last time (guess, when after is the row Source
// resolved last), confirmed by comparing that row's ID with b, and hashes
// into the stripes only when the guess misses. A source no row holds is
// unknown (0): only a delivered heartbeat (touch) gives a client a row, so
// a frame the server rejects leaves none behind. Its bytes go into the
// stripe's arena all the same, and touch takes them when it gives the
// source a row, so a first sight leaves no string of its own; the reader
// copies only an ID longer than a chunk, or one seen while the arena holds
// as many dead bytes as settle re-packs at (see presenceShard.first).
func (cs *connState) Source(after hbproto.Handle, b []byte) (string, hbproto.Handle) {
	s := cs.s
	if g := cs.guess; g != 0 && after == cs.from {
		sh, p := s.rowAt(g)
		sh.mu.Lock()
		// sh.holds, written out: Source's callees are as deep as a
		// reader's stack gets (DESIGN.md, "The goroutine stack budget").
		if r := sh.at(p); r != nil && r.live {
			if id := sh.ids.str(r.id); id == string(b) {
				cs.from, cs.guess = g, r.next
				sh.mu.Unlock()
				cs.guessHits++
				return id, g
			}
		}
		sh.mu.Unlock()
	}
	cs.guessMisses++
	h, sh, st := s.stripeOf(maphash.Bytes(s.seed, b))
	sh.mu.Lock()
	// sh.find, written out, for the same reason.
	p, ok := sh.index.Find(h, func(p int32) bool { return string(sh.ids.bytes(sh.at(p).id)) == string(b) })
	if !ok {
		id := sh.first(b)
		sh.mu.Unlock()
		cs.from, cs.guess = 0, 0
		return id, 0
	}
	r := sh.at(p)
	id, g := sh.ids.str(r.id), handleOf(st, p)
	cs.from, cs.guess = g, r.next
	sh.mu.Unlock()
	if after != 0 {
		s.link(after, g)
	}
	return id, g
}

// flushGuesses moves the connection's guess counts since the last frame
// into the server's counters.
func (s *Server) flushGuesses(cs *connState) {
	cs.cc.guessHits.Add(int64(cs.guessHits))
	cs.cc.guessMisses.Add(int64(cs.guessMisses))
	cs.guessHits, cs.guessMisses = 0, 0
}

func (s *Server) handleConn(conn net.Conn, cc *connCounters) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	s.mu.Lock()
	idle := s.idleTimeout
	s.mu.Unlock()
	cs := s.newConnState(cc)
	fr := hbproto.NewTableReader(conn, cs)
	for {
		if idle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(idle))
		}
		msg, err := fr.Next()
		cs.agg.v, cs.agg.sum = fr.Version(), fr.Sum() // acks answer in kind
		if err != nil {
			// Best-effort: acks deferred behind a peer's final burst
			// still go out before a clean disconnect.
			_ = s.flushAcks(conn, &cs.agg)
			s.flushGuesses(cs)
			s.noteReadError(conn, err)
			return
		}
		s.ins.frames.Inc()
		err = s.handleMessage(cs, msg)
		s.flushGuesses(cs)
		if err != nil {
			if errors.Is(err, errProtocol) {
				s.noteDrop(conn, err.Error(), false)
			}
			return
		}
		if cs.agg.shouldFlush(fr.Buffered(), time.Now()) {
			if err := s.flushAcks(conn, &cs.agg); err != nil {
				return
			}
		}
	}
}

// errProtocol marks connection drops caused by the peer violating the
// protocol (as opposed to ordinary disconnects or write failures).
var errProtocol = errors.New("relaynet: protocol violation")

// noteReadError classifies a terminal read error: clean disconnects pass
// silently, idle-deadline expiries count as reaps, anything else (bad
// magic, checksum mismatch, truncated frame, unknown type) is a protocol
// error. Both drop flavours emit a conn-drop trace event.
func (s *Server) noteReadError(conn net.Conn, err error) {
	if err == io.EOF || errors.Is(err, net.ErrClosed) {
		return
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.noteDrop(conn, "idle-timeout", true)
		return
	}
	s.noteDrop(conn, err.Error(), false)
}

// noteDrop records one counted connection drop and its trace event.
func (s *Server) noteDrop(conn net.Conn, reason string, idle bool) {
	if idle {
		s.idleDrops.Add(1)
	} else {
		s.protocolErrors.Add(1)
	}
	trace.Emit(s.tracer, trace.Event{
		At: trace.Unix(time.Now()), Device: conn.RemoteAddr().String(),
		Kind: trace.KindConnDrop, Reason: reason,
	})
}

// handleMessage updates presence state and queues the acks the message
// earned; handleConn decides when the queue is flushed to the socket.
func (s *Server) handleMessage(cs *connState, msg hbproto.Message) error {
	now := time.Now()
	switch m := msg.(type) {
	case *hbproto.Register:
		cs.cc.registers.Add(1)
		s.register(m, now)
		return nil
	case *hbproto.Heartbeat:
		s.touch(cs, m, now, false)
		cs.agg.add(m, true, now)
		return nil
	case *hbproto.Batch:
		for i := range m.HBs {
			s.touch(cs, &m.HBs[i], now, true)
			cs.agg.add(&m.HBs[i], i == 0, now)
		}
		cs.cc.batches.Add(1)
		s.ins.batchSize.Record(uint64(len(m.HBs)))
		return nil
	default:
		return fmt.Errorf("%w: unexpected %v from client", errProtocol, msg.Type())
	}
}

// register applies a Register to the client's row in place: a client
// that registers again has not un-delivered what it delivered.
func (s *Server) register(m *hbproto.Register, now time.Time) {
	sh, r, _ := s.lockRow(m.ID)
	r.app, r.lastSeen, r.deadline = sh.app(m.App), now.UnixNano(), now.Add(m.Expiry).UnixNano()
	sh.mu.Unlock()
}

// lockSource returns a heartbeat's row with its stripe locked, and the
// row's handle: the row its reader named while that row still holds
// hb.Src, by ID otherwise (handle 0 — a source no row held when it was
// decoded — or a row a handoff freed, or gave to another client, since).
func (s *Server) lockSource(hb *hbproto.Heartbeat) (*presenceShard, *row, hbproto.Handle) {
	if hb.Handle != 0 {
		sh, p := s.rowAt(hb.Handle)
		sh.mu.Lock()
		if r := sh.holds(p, hb.Src); r != nil {
			return sh, r, hb.Handle
		}
		sh.mu.Unlock()
	}
	return s.lockRow(hb.Src)
}

// touch resets a client's expiration timer: IM apps "send heartbeat
// messages frequently to reset the expiration timers" (Section II-A), so
// the timer runs for the heartbeat's expiry from reception. A heartbeat
// arriving past its own origin+expiry deadline still resets the timer but
// is counted late: the client had already flapped offline in between.
func (s *Server) touch(cs *connState, hb *hbproto.Heartbeat, now time.Time, relayed bool) {
	if relayed {
		cs.cc.relayed.Add(1)
	} else {
		cs.cc.direct.Add(1)
	}
	onTime := !now.After(hb.Deadline())
	if !onTime {
		cs.cc.late.Add(1)
	}
	sh, r, h := s.lockSource(hb)
	if r.app == 0 {
		r.app = sh.app(hb.App)
	}
	// Handlers stamp now before taking the lock, so two connections can
	// deliver for one client a hair out of order; the row keeps the later
	// instant.
	at := now.UnixNano()
	r.lastSeen = max(r.lastSeen, at)
	r.deadline = max(r.deadline, at+int64(hb.Expiry))
	r.maxSeq = max(r.maxSeq, hb.Seq)
	misrouted := s.misroutedLocked(r, hb.Src)
	sh.mu.Unlock()
	// Source links a row after the previous one when the reader knew both.
	// When it did not — a first sight, or a row a handoff took since — the
	// link is made here, so a connection's first period already lays the
	// chain its second one follows; a guess Source took from the previous
	// row is that link.
	known := hb.Handle == h
	if cs.prev != 0 && !(known && cs.prevKnown) {
		s.link(cs.prev, h)
		if cs.prev == cs.from {
			cs.guess = h
		}
	}
	cs.prev, cs.prevKnown = h, known
	if misrouted {
		s.misrouted.Add(1)
	}
	if s.tracer != nil {
		s.traceDelivery(hb, now, relayed, onTime)
	}
}

// traceDelivery emits touch's trace event. The event is a large value:
// built in touch's own frame it would deepen the first-sight path, and with
// it the stack of every handler goroutine, by ~180 B.
func (s *Server) traceDelivery(hb *hbproto.Heartbeat, now time.Time, relayed, onTime bool) {
	via := hb.Src
	if relayed {
		via = "relay"
	}
	s.tracer.Emit(trace.Event{
		At: trace.Unix(now), Device: hb.Src, Kind: trace.KindDelivery,
		App: hb.App, Seq: hb.Seq, Peer: via, OnTime: onTime,
	})
}
