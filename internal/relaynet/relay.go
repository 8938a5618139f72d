package relaynet

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/d2d"
	"d2dhb/internal/device"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/sched"
	"d2dhb/internal/session"
	"d2dhb/internal/simtime"
	"d2dhb/internal/telemetry"
	"d2dhb/internal/trace"
)

// RelayAgentConfig parameterizes a relay agent.
type RelayAgentConfig struct {
	// ID is the relay's device id.
	ID string
	// App names the relay's own heartbeat app.
	App string
	// Period is the relay's own heartbeat period (the scheduling window
	// T).
	Period time.Duration
	// Expiry is the relay's own heartbeat expiration time.
	Expiry time.Duration
	// Pad is the relay's own heartbeat size in bytes.
	Pad int
	// Capacity is M, the per-period collection capacity.
	Capacity int
	// Tracer receives structured events when non-nil, at Unix instants
	// (trace.Unix).
	Tracer trace.Tracer
	// Dial overrides upstream (server) dialing; nil selects net.Dial.
	// Fault-injection hook (see internal/faultnet).
	Dial func(network, addr string) (net.Conn, error)
	// Listen overrides the UE-side listener construction; nil selects
	// net.Listen. Fault-injection hook.
	Listen func(network, addr string) (net.Listener, error)
	// Cluster is the presence view the relay forwards into: every flushed
	// batch is partitioned by the current ring epoch and each sub-batch
	// goes to its owning shard over a lazily dialed per-shard connection.
	// Nil makes the serverAddr given to Start a one-node view. A shard that
	// cannot be reached costs only its own sub-batch (the affected UEs
	// recover through the feedback-timeout fallback); the relay never
	// waits on a dead shard, and redials it only after session.Uplink's
	// backoff, jittered from a seed derived from ID.
	Cluster *cluster.Client
	// Telemetry registers the agent's runtime metrics (batch sizes,
	// collect-to-flush latency, reconnect attempts, scheduler occupancy
	// and deadline slack) in the given registry. Nil disables telemetry.
	Telemetry *telemetry.Registry
}

func (c RelayAgentConfig) validate() error {
	if c.ID == "" {
		return errors.New("relaynet: empty relay id")
	}
	if c.Period <= 0 || c.Expiry <= 0 {
		return fmt.Errorf("relaynet: period/expiry must be positive (%v/%v)", c.Period, c.Expiry)
	}
	if c.Capacity <= 0 {
		return fmt.Errorf("relaynet: capacity must be positive, got %d", c.Capacity)
	}
	return nil
}

// listen resolves the UE-side listen hook.
func (c RelayAgentConfig) listen(network, addr string) (net.Listener, error) {
	if c.Listen != nil {
		return c.Listen(network, addr)
	}
	return net.Listen(network, addr)
}

// RelayAgentStats aggregates a relay agent's behaviour: the counters of
// the relay itself — the simulator's device.RelayStats — and those only the
// live substrate has. On the live stack AcksSent counts feedback refs
// queued to a connected UE, AckFailures acks whose UE connection had gone,
// and SendErrors flushes no shard took.
type RelayAgentStats struct {
	device.RelayStats
	UEConnections int
	// ShardDials counts successful upstream dials (including each
	// shard's first); UpstreamReconnects counts the rest.
	ShardDials         int
	UpstreamReconnects int
	// DroppedNoShard counts heartbeats abandoned because their owning
	// shard was unreachable (or in dial backoff) at flush time. The UEs
	// recover through the feedback-timeout fallback.
	DroppedNoShard int
	// FeedbackWritesSaved counts UE feedback writes avoided by merging
	// refs from several server acks into one Feedback frame per UE per
	// turn (each merge into an already-pending group is one write
	// the per-ack path would have issued).
	FeedbackWritesSaved int
	// Routes is the feedback routes the relay held at the end of its last
	// turn (device.Relay.Awaiting); RoutesExpired counts those dropped
	// because their UE's ack window closed before a shard acknowledged
	// them (device.Relay.RoutesExpired).
	Routes        int
	RoutesExpired int
}

// ueConn is one connected UE on the relay's "D2D" listener; it is the
// relay's ReturnPath for the heartbeats that arrive over it. Its reader owns
// conn's read side; every other field belongs to the relay's runner.
type ueConn struct {
	conn net.Conn
	// live is set by the UE's Register and cleared when its connection
	// closes: feedback goes only to a live UE.
	live bool
	// v is the version the connection speaks, which its feedback answers
	// in: the reader sets it at the first frame, before it offers one (0,
	// no frame read, answers in v1).
	v byte
	// fb holds the refs acknowledged for the UE in the current turn, which
	// flushFeedback writes as one Feedback frame; ack numbers the server
	// ack that last queued one, so a merge across acks is counted once.
	fb  []hbproto.Ref
	ack uint64
	// until is the write deadline last set on conn, in UnixNano (see
	// flushFeedback).
	until int64
}

// inputKind names what an inbox entry carries.
type inputKind uint8

const (
	inTick      inputKind = iota // the wall timer fired
	inRegister                   // a UE registered on ue
	inHeartbeat                  // hb arrived on ue
	inClosed                     // ue's connection closed
	inAck                        // a shard acknowledged acked
)

// input is one entry of the relay's inbox: a value stamped with the kernel
// instant it arrived at. Nothing in it is shared with the goroutine that
// offered it but acked, which lies in the inbox's ref arena.
type input struct {
	at    time.Duration
	kind  inputKind
	ue    *ueConn
	hb    hbmsg.Heartbeat
	acked []hbproto.Ref
}

// ueHeartbeat is the input for UE heartbeat m arriving over uc at kernel
// instant at, age after the UE stamped it. Its strings are the reader's
// interned ones: stable, and copied for free.
func ueHeartbeat(at time.Duration, uc *ueConn, m *hbproto.Heartbeat, age time.Duration) input {
	return input{at: at, kind: inHeartbeat, ue: uc, hb: hbmsg.Heartbeat{
		App: m.App, Src: hbmsg.DeviceID(m.Src), Seq: m.Seq,
		Origin: at - age, Expiry: m.Expiry, Size: m.Pad,
	}}
}

// inboxCap bounds the inbox. An offer that finds it full waits until the
// runner takes the queued entries, so a stalled runner holds its UE
// readers back as a rendezvous with a run goroutine would.
const inboxCap = 64

// inbox is the relay's input queue and the token that makes one goroutine
// its runner. room and idle are made only by a goroutine about to wait on
// them: room by an offer that found the inbox full, idle by Shutdown.
type inbox struct {
	mu      sync.Mutex
	entries []input
	refs    []hbproto.Ref // the ack entries' refs
	running bool
	closed  bool
	room    chan struct{} // closed when the entries are taken
	idle    chan struct{} // closed when the runner hands the relay back
}

// close stops further offers and returns a channel that is closed once the
// current runner has handed the relay back, or nil when the relay is idle.
func (q *inbox) close() chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	if q.room != nil {
		close(q.room)
		q.room = nil
	}
	if !q.running {
		return nil
	}
	q.idle = make(chan struct{})
	return q.idle
}

// RelayAgent is the live substrate of device.Relay, Algorithm 1 stated once
// for simulator and network alike: it accepts UE connections, hands their
// heartbeats to the relay, forwards its flushes to the presence shards and
// confirms each heartbeat a shard acknowledges, which sends the UE its
// feedback.
//
// The relay runs on a simtime.Scheduler whose instant 0 is the agent's
// start. Every input — a UE frame or close, a shard's ack, a wall timer
// tick — is appended to one bounded inbox, stamped with its arrival
// instant, and whichever goroutine appends to an idle relay becomes its
// runner: it drains the inbox, advancing the scheduler to each entry's
// instant before handling it (see step), so Algorithm 1's boundaries and
// deadlines run at their own instants, in the kernel's order, however late
// the wall timer that announces them fires.
type RelayAgent struct {
	cfg RelayAgentConfig
	// up sends the flushes. Its Cluster is cfg.Cluster, or the one-node
	// view Start builds from its server address, set before the first input.
	up session.Uplink

	mu      sync.Mutex
	ln      net.Listener
	ues     map[net.Conn]bool // the UE connections open, which Shutdown closes
	started bool
	closed  bool
	stats   RelayAgentStats
	// readerFlushTurns is what ReaderFlushTurns reports.
	readerFlushTurns int
	// wake is the wall timer pointed at the kernel's next action; Start
	// makes it before the first input.
	wake *time.Timer
	wg   sync.WaitGroup

	in    inbox
	epoch time.Time // the wall instant of kernel instant 0

	// runner state: touched only by the goroutine holding the relay.
	relay  *device.Relay
	kernel *simtime.Scheduler
	// turn and turnRefs hold the entries of the turn being run; take hands
	// them back to the inbox as its next buffers. armed is the kernel
	// instant the wall timer points at.
	turn     []input
	turnRefs []hbproto.Ref
	armed    time.Duration
	// held stamps each heartbeat in the window with its collect instant,
	// in collect order, for the collect-to-flush histogram (telemetry
	// only); the next flush drains it.
	held []time.Duration
	// fbConns lists the UEs with feedback queued this turn, in the order
	// their first ref was; acks counts the server acks handled, and merged
	// the merges into refs an earlier ack of the turn left queued.
	fbConns []*ueConn
	acks    uint64
	merged  int
	// The feedback encode scratch.
	fbBuf []byte
	fbMsg hbproto.Feedback
	// onReader is set while a UE reader is the runner.
	onReader bool

	ins relayInstruments
}

// relayInstruments is the agent's live-telemetry handle block; every
// handle is nil (a no-op) without a configured registry. What Stats counts
// is read from it at scrape time instead (see exposeStats).
type relayInstruments struct {
	feedbacks      *telemetry.Counter
	reconnectTries *telemetry.Counter
	batchSize      *telemetry.Histogram
	collectToFlush *telemetry.Histogram
	// Wire-path coalescing: feedback frames written, refs per feedback
	// frame, and bytes written upstream per flush.
	fbFlushes  *telemetry.Counter
	fbRefs     *telemetry.Histogram
	upBytesOut *telemetry.Counter
	// inputsPerTurn is how many inbox entries each runner turn takes: 1
	// everywhere means every arrival paid for a turn of its own.
	inputsPerTurn *telemetry.Histogram
}

// NewRelayAgent returns an unstarted relay agent.
func NewRelayAgent(cfg RelayAgentConfig) (*RelayAgent, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	policy, err := sched.NewNagle(cfg.Capacity, cfg.Period)
	if err != nil {
		return nil, err
	}
	r := &RelayAgent{
		cfg: cfg,
		// The relay draws nothing from its kernel's RNG.
		kernel: simtime.NewScheduler(0),
		armed:  -1,
		ues:    map[net.Conn]bool{},
	}
	r.up = session.Uplink{
		Dial: cfg.Dial,
		Register: &hbproto.Register{
			ID: cfg.ID, Role: hbproto.RoleRelay, App: cfg.App,
			Period: cfg.Period, Expiry: cfg.Expiry,
		},
		Acks: func(string) func([]hbproto.Ref, time.Time) {
			return func(refs []hbproto.Ref, at time.Time) { r.offer(input{at: at.Sub(r.epoch), kind: inAck}, refs) }
		},
	}
	if reg := cfg.Telemetry; reg != nil {
		rl := telemetry.L("relay", cfg.ID)
		r.ins = relayInstruments{
			feedbacks:      reg.Counter("relaynet_relay_feedbacks_total", rl),
			reconnectTries: reg.Counter("relaynet_relay_reconnect_attempts_total", rl),
			batchSize:      reg.Histogram("relaynet_relay_batch_size", "msgs", 1, rl),
			collectToFlush: reg.Histogram("relaynet_relay_collect_to_flush_us", "us", 1, rl),
			fbFlushes:      reg.Counter("relaynet_relay_feedback_flushes_total", rl),
			fbRefs:         reg.Histogram("relaynet_relay_feedback_refs_per_flush", "refs", 1, rl),
			upBytesOut:     reg.Counter("relaynet_relay_upstream_bytes_total", rl),
			inputsPerTurn:  reg.Histogram("relaynet_relay_inputs_per_turn", "inputs", 1, rl),
		}
		// The Algorithm 1 scheduler records its own occupancy-vs-capacity
		// and deadline-slack figures from the instants the relay injects —
		// telemetry never hands it the wall clock.
		kl := telemetry.L("policy", policy.Kind().String())
		ins := &sched.Instruments{
			Occupancy:  reg.Histogram("sched_pending_occupancy", "msgs", 1, rl, kl),
			FlushSize:  reg.Histogram("sched_flush_size", "msgs", 1, rl, kl),
			FlushSlack: reg.Histogram("sched_flush_slack_us", "us", 1, rl, kl),
		}
		for reason := sched.ReasonCapacity; reason <= sched.ReasonPolicy; reason++ {
			ins.Flushes[reason] = reg.Counter("sched_flushes_total", telemetry.L("reason", reason.String()), rl, kl)
		}
		policy.SetInstruments(ins)
		reg.Gauge("sched_capacity", rl, kl).Set(int64(policy.Capacity()))
		r.exposeStats(reg, rl, kl)
	}
	var tracer trace.Tracer
	if cfg.Tracer != nil || cfg.Telemetry != nil {
		tracer = agentTrace{r}
	}
	// The profile carries the period and passes validation; the own
	// heartbeat goes on the wire with App, Expiry and Pad exactly as
	// configured (see agentUplink.Forward).
	r.relay, err = device.NewRelayOn(simtime.SchedulerClock{S: r.kernel}, agentRadio{r}, agentUplink{r}, device.RelayConfig{
		ID: hbmsg.DeviceID(cfg.ID),
		Profile: hbmsg.AppProfile{
			Name: cmp.Or(cfg.App, cfg.ID), Period: cfg.Period, Size: max(cfg.Pad, 1),
			ExpiryFactor: float64(cfg.Expiry) / float64(cfg.Period),
		},
		Capacity: cfg.Capacity, Policy: policy, Tracer: tracer,
	})
	if err != nil {
		return nil, err
	}
	// The first period opens at kernel instant 0, in the first turn.
	if err := r.relay.Start(); err != nil {
		return nil, err
	}
	return r, nil
}

// exposeStats registers the series /metrics reads from Stats at scrape
// time, each labelled rl (and the window's rejects kl too).
func (r *RelayAgent) exposeStats(reg *telemetry.Registry, rl, kl telemetry.Label) {
	stat := func(name string, field func(RelayAgentStats) int, labels ...telemetry.Label) {
		reg.CounterFunc(name, func() float64 { return float64(field(r.Stats())) }, append(labels, rl)...)
	}
	stat("relaynet_relay_collected_total", func(st RelayAgentStats) int { return st.Collected })
	stat("relaynet_relay_reconnects_total", func(st RelayAgentStats) int { return st.ShardDials })
	stat("relaynet_relay_shard_drops_total", func(st RelayAgentStats) int { return st.DroppedNoShard })
	stat("relaynet_relay_feedback_writes_saved_total", func(st RelayAgentStats) int { return st.FeedbackWritesSaved })
	stat("relaynet_relay_routes_expired_total", func(st RelayAgentStats) int { return st.RoutesExpired })
	stat("sched_rejects_total", func(st RelayAgentStats) int { return st.RejectedClosed }, telemetry.L("reason", "closed"), kl)
	stat("sched_rejects_total", func(st RelayAgentStats) int { return st.RejectedExpired }, telemetry.L("reason", "expired"), kl)
	reg.GaugeFunc("relaynet_relay_routes", func() float64 { return float64(r.Stats().Routes) }, rl)
}

// offer enqueues one input and, if that made the caller the relay's
// runner, serves the inbox until it is empty. The wall timer's tick and
// the upstream ack callback offer this way; a UE reader enqueues in
// ueFrame and serves from its own frame. false means the agent has
// stopped.
func (r *RelayAgent) offer(in input, refs []hbproto.Ref) bool {
	run, ok := r.enqueue(in, refs)
	if run {
		r.serve(false)
	}
	return ok
}

// enqueue appends one input to the inbox, with refs (an ack's, in the
// reader's reused slice) copied into the inbox's arena, waiting while the
// inbox is full. run reports that the relay was idle, so the caller is now
// its runner and must call serve; ok is false if the agent has stopped.
func (r *RelayAgent) enqueue(in input, refs []hbproto.Ref) (run, ok bool) {
	q := &r.in
	q.mu.Lock()
	for len(q.entries) >= inboxCap && !q.closed {
		if q.room == nil {
			q.room = make(chan struct{})
		}
		room := q.room
		q.mu.Unlock()
		<-room
		q.mu.Lock()
	}
	if q.closed {
		q.mu.Unlock()
		return false, false
	}
	if len(refs) > 0 {
		lo := len(q.refs)
		q.refs = append(q.refs, refs...)
		in.acked = q.refs[lo:len(q.refs):len(q.refs)]
	}
	q.entries = append(q.entries, in)
	run = !q.running
	q.running = true
	q.mu.Unlock()
	return run, true
}

// serve runs turns until the inbox is empty; onReader says the caller is a
// UE reader. Only the goroutine whose enqueue found the relay idle calls
// it, so exactly one goroutine at a time is inside device.Relay and its
// kernel, and no lock is held while a turn writes to a socket.
func (r *RelayAgent) serve(onReader bool) {
	r.onReader = onReader
	for batch := r.take(); batch != nil; batch = r.take() {
		r.runTurn(batch)
	}
}

// take hands the runner every queued entry, giving the inbox the previous
// turn's buffers in exchange, and wakes offers waiting for room. With
// nothing queued, or the agent stopped, it hands the relay back and
// returns nil.
func (r *RelayAgent) take() []input {
	clear(r.turn) // the entries hold connections: let them go
	q := &r.in
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.entries) == 0 || q.closed {
		q.running = false
		if q.idle != nil {
			close(q.idle)
			q.idle = nil
		}
		return nil
	}
	r.turn, q.entries = q.entries, r.turn[:0]
	r.turnRefs, q.refs = q.refs, r.turnRefs[:0]
	if q.room != nil {
		close(q.room)
		q.room = nil
	}
	return r.turn
}

// runTurn steps through one turn's entries, then writes the feedback they
// produced, publishes the counters and points the wall timer at the
// kernel's next action.
func (r *RelayAgent) runTurn(batch []input) {
	for i := range batch {
		r.step(&batch[i])
	}
	r.flushFeedback()
	r.publish()
	if at, ok := r.kernel.NextAt(); ok && at != r.armed {
		r.armed = at
		r.wake.Reset(at - time.Since(r.epoch))
	}
	r.ins.inputsPerTurn.Record(uint64(len(batch)))
}

// tick is the wall timer's callback: a tick input runs whatever is due.
func (r *RelayAgent) tick() { r.offer(input{at: time.Since(r.epoch)}, nil) }

// Start listens for UE connections on listenAddr. Upstream connections
// are dialed lazily, one per shard at the first flush toward it; with
// Cluster nil, serverAddr is the one shard. An unreachable server
// therefore does not fail Start: its sub-batches are dropped (counted in
// DroppedNoShard) until a dial succeeds, and the UEs fall back.
//
// The listen runs outside r.mu, so Addr, Stats and Shutdown never wait on
// it. The started flag reserves the slot up front so a concurrent Start
// fails fast instead of racing the setup.
func (r *RelayAgent) Start(listenAddr, serverAddr string) error {
	cl := r.cfg.Cluster
	if cl == nil {
		var err error
		if cl, err = cluster.NewSingleNodeClient(serverAddr); err != nil {
			return fmt.Errorf("relaynet: relay upstream: %w", err)
		}
	}
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return errors.New("relaynet: relay already started")
	}
	r.started = true
	r.up.Cluster = cl
	r.mu.Unlock()

	ln, err := r.cfg.listen("tcp", listenAddr)
	if err != nil {
		r.mu.Lock()
		r.started = false
		r.mu.Unlock()
		return fmt.Errorf("relaynet: relay listen: %w", err)
	}

	r.mu.Lock()
	if r.closed {
		// Shutdown ran while we were listening: it saw started=true but
		// had no listener to close, so close it here.
		r.mu.Unlock()
		_ = ln.Close()
		return errors.New("relaynet: relay shut down during start")
	}
	r.ln = ln
	r.epoch = time.Now()
	// The first turn opens the first period and points the timer at the
	// kernel's next action.
	r.wake = time.AfterFunc(time.Hour, r.tick)
	r.wg.Add(1)
	r.mu.Unlock()

	r.tick()
	go r.acceptLoop()
	return nil
}

// Addr returns the UE-side listening address.
func (r *RelayAgent) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ln == nil {
		return ""
	}
	return r.ln.Addr().String()
}

// Stats returns a snapshot of the counters.
func (r *RelayAgent) Stats() RelayAgentStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// ReaderFlushTurns counts the turns a UE reader ran in which the relay
// flushed. A flush writes upstream from the bottom of the turn, deeper
// than a 2 KB stack holds, and a reader keeps the stack it grew to
// (DESIGN.md, "The goroutine stack budget"). Which goroutine runs a turn
// depends on which one found the relay idle, so unlike Stats the count can
// differ between two runs of one schedule.
func (r *RelayAgent) ReaderFlushTurns() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.readerFlushTurns
}

// Shutdown stops the agent, closes its UE connections and waits for its
// goroutines and for the runner to hand the relay back. Pending collected
// heartbeats are lost — exactly the failure the UE fallback covers.
func (r *RelayAgent) Shutdown() {
	r.mu.Lock()
	if r.closed || !r.started {
		r.mu.Unlock()
		return
	}
	r.closed = true
	// ln is nil when Start is still mid-listen; Start sees closed=true and
	// closes its own listener.
	if r.ln != nil {
		_ = r.ln.Close()
	}
	for c := range r.ues {
		_ = c.Close()
	}
	wake := r.wake
	r.mu.Unlock()
	// Close the inbox first: it releases the offers waiting for room, among
	// them slot readers that Close waits for. The timer stops once no
	// runner is left to reset it.
	idle := r.in.close()
	r.up.Close()
	if idle != nil {
		<-idle
	}
	if wake != nil {
		wake.Stop()
	}
	r.wg.Wait()
}

func (r *RelayAgent) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		uc := &ueConn{conn: conn}
		r.mu.Lock()
		r.stats.UEConnections++
		r.ues[conn] = true
		if r.closed { // Shutdown has closed the others already
			_ = conn.Close()
		}
		r.mu.Unlock()
		r.wg.Add(1)
		go r.ueReader(uc)
	}
}

// ueReader reads one UE's frames through a FrameReader (reused scratch,
// interned strings) and hands each read to ueFrame. When that made it the
// relay's runner, it serves the turn from its own frame, with ueFrame's
// already popped. It parks in Next with only the loop in its frame: a
// relay holds one reader per UE, and the depth they park at sets the stack
// every new goroutine of the process starts with, while the depth a turn
// reaches sets the stack the reader keeps (DESIGN.md, "The goroutine stack
// budget").
func (r *RelayAgent) ueReader(uc *ueConn) {
	defer r.wg.Done()
	defer func() {
		_ = uc.conn.Close()
		r.mu.Lock()
		delete(r.ues, uc.conn)
		r.mu.Unlock()
	}()
	fr := hbproto.NewFrameReader(uc.conn)
	for {
		msg, err := fr.Next()
		if uc.v == 0 {
			uc.v = fr.Version()
		}
		run, more := r.ueFrame(uc, msg, err)
		if run {
			r.serve(true)
		}
		if !more {
			return
		}
	}
}

// ueFrame enqueues what one read from uc returned as a value input, so
// nothing the reader reuses outlives the frame. It runs no turn: run
// reports that the reader is now the relay's runner and must serve, more
// that it reads on. It is never inlined: the input it builds must sit
// neither in the frame a reader parks with nor below the turn it runs.
//
//go:noinline
func (r *RelayAgent) ueFrame(uc *ueConn, msg hbproto.Message, err error) (run, more bool) {
	now := time.Now()
	at := now.Sub(r.epoch)
	if err != nil {
		run, _ = r.enqueue(input{at: at, kind: inClosed, ue: uc}, nil)
		return run, false
	}
	var in input
	switch m := msg.(type) {
	case *hbproto.Register:
		in = input{at: at, kind: inRegister, ue: uc}
	case *hbproto.Heartbeat:
		in = ueHeartbeat(at, uc, m, now.Sub(m.Origin))
	default:
		return false, true // UEs only register and send heartbeats
	}
	return r.enqueue(in, nil)
}

// step advances the relay's kernel to the input's instant, running every
// period boundary and flush deadline due by then at its own instant, and
// then handles the input there. A UE heartbeat that arrives after a
// boundary whose timer has not fired yet is thus collected into the new
// window. An input stamped before an instant the kernel already reached —
// offered concurrently with a later one — is handled at the kernel's
// instant.
func (r *RelayAgent) step(in *input) {
	_ = r.kernel.RunUntil(max(in.at, r.kernel.Now())) // errs only for a horizon before now, which max rules out
	switch in.kind {
	case inRegister:
		in.ue.live = true
	case inHeartbeat:
		r.relay.Receive(in.hb, in.ue)
	case inClosed:
		in.ue.live, in.ue.fb = false, nil
	case inAck:
		r.handleAck(in.acked)
	}
}

// publish copies the relay's counters to where Stats, and through it
// /metrics, reads them, and counts the turn if a UE reader ran it and it
// flushed.
func (r *RelayAgent) publish() {
	st, routes, expired := r.relay.Stats(), r.relay.Awaiting(), r.relay.RoutesExpired()
	r.mu.Lock()
	if r.onReader && st.Flushes > r.stats.Flushes {
		r.readerFlushTurns++
	}
	r.stats.RelayStats, r.stats.Routes, r.stats.RoutesExpired = st, routes, expired
	r.mu.Unlock()
}

// handleAck confirms every heartbeat a shard acknowledged; the relay finds
// its UE and feeds back through agentRadio.Ack. Acks from every shard
// funnel through the same path, and refs from several acks of a turn merge
// into one Feedback frame per UE (the saved writes are counted).
func (r *RelayAgent) handleAck(refs []hbproto.Ref) {
	r.acks++
	for _, ref := range refs {
		r.relay.Confirm(hbmsg.DeviceID(ref.Src), ref.Seq)
	}
	if saved := r.merged; saved > 0 {
		r.merged = 0
		r.mu.Lock()
		r.stats.FeedbackWritesSaved += saved
		r.mu.Unlock()
	}
}

// feedbackWriteTimeout bounds a feedback write, which runs on the relay's
// runner: a UE that has not taken its frame by then loses its connection,
// so one that stops reading holds up the other UEs' turns for at most this
// long, and its heartbeats fall back through their ack windows.
const feedbackWriteTimeout = time.Second

// flushFeedback writes the turn's feedback: one frame — one Write — per UE,
// in the order the UEs were first acknowledged and in the version the UE
// speaks, composed in a reusable buffer from the refs its ueConn holds.
// Each write has between half of feedbackWriteTimeout and all of it: a
// connection's deadline moves only once half of it has passed, since
// setting a net.Pipe's deadline allocates a timer.
func (r *RelayAgent) flushFeedback() {
	for i, uc := range r.fbConns {
		r.fbConns[i] = nil
		refs := uc.fb
		if len(refs) == 0 {
			continue // its connection closed later in the turn
		}
		uc.fb = refs[:0]
		r.fbMsg.Refs = refs
		out, err := hbproto.AppendFrameV(r.fbBuf[:0], cmp.Or(uc.v, hbproto.Version), &r.fbMsg)
		r.fbBuf, r.fbMsg.Refs = out[:0], nil
		if err != nil {
			continue
		}
		if now := time.Now().UnixNano(); uc.until-now < int64(feedbackWriteTimeout/2) {
			uc.until = now + int64(feedbackWriteTimeout)
			_ = uc.conn.SetWriteDeadline(time.Unix(0, uc.until))
		}
		if _, err := uc.conn.Write(out); err != nil {
			_ = uc.conn.Close() // a frame cut short leaves the stream unreadable
			continue
		}
		r.ins.feedbacks.Add(uint64(len(refs)))
		r.ins.fbFlushes.Inc()
		r.ins.fbRefs.Record(uint64(len(refs)))
	}
	r.fbConns = r.fbConns[:0]
}

// errUEGone is agentRadio.Ack's answer for a UE whose connection closed
// before its heartbeat was acknowledged.
var errUEGone = errors.New("relaynet: UE connection gone")

// agentRadio is the agent's UE side as the relay's RelayRadio. Discovery is
// the listener, so there is nothing to advertise or stop answering.
type agentRadio struct{ r *RelayAgent }

func (agentRadio) Advertise(int, int) {}

func (agentRadio) Shutdown() {}

// Ack queues one feedback ref on its UE; flushFeedback writes it at the end
// of the turn.
func (a agentRadio) Ack(via device.ReturnPath, ref d2d.AckRef) error {
	r, uc := a.r, via.(*ueConn)
	if !uc.live {
		return errUEGone
	}
	switch {
	case len(uc.fb) == 0:
		r.fbConns = append(r.fbConns, uc)
	case uc.ack != r.acks:
		// Refs from an earlier ack in this turn are still queued for the
		// UE: the per-ack path would have written them as a separate
		// Feedback frame.
		r.merged++
	}
	uc.ack = r.acks
	uc.fb = append(uc.fb, hbproto.Ref{Src: string(ref.Src), Seq: ref.Seq})
	return nil
}

// errNoShard is agentUplink.Forward's answer when no shard took any part
// of a flush.
var errNoShard = errors.New("relaynet: no shard reachable")

// agentUplink is the agent's shard uplink as the relay's Forwarder. The
// shards acknowledge later, through handleAck.
type agentUplink struct{ r *RelayAgent }

// Forward sends one flush through the uplink, which partitions it under one
// ring view and sends each sub-batch to its owning shard. A shard that
// cannot be reached loses only its own sub-batch.
func (u agentUplink) Forward(hbs []hbmsg.Heartbeat) (lost []int, acked bool, err error) {
	r := u.r
	now := r.kernel.Now()
	for _, at := range r.held {
		r.ins.collectToFlush.Record(uint64((now - at) / time.Microsecond))
	}
	r.held = r.held[:0]
	parts := r.up.Send(r.epoch.Add(now), len(hbs),
		func(v *cluster.View, i int) int { return v.Ring().OwnerIndex(string(hbs[i].Src)) },
		func(i int) hbproto.Heartbeat {
			hb := &hbs[i]
			w := hbproto.Heartbeat{
				Src: string(hb.Src), Seq: hb.Seq, App: hb.App,
				Origin: r.epoch.Add(hb.Origin), Expiry: hb.Expiry, Pad: hb.Size,
			}
			if w.Src == r.cfg.ID {
				w.App, w.Expiry, w.Pad = r.cfg.App, r.cfg.Expiry, r.cfg.Pad
			}
			return w
		})
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range parts {
		p := &parts[i]
		if p.Dial != 0 {
			r.ins.reconnectTries.Inc()
		}
		if p.Dial > 0 {
			r.stats.ShardDials++
		}
		if p.Dial > 1 {
			r.stats.UpstreamReconnects++
		}
		if p.Err != nil {
			lost = append(lost, p.Pos...)
		} else if len(p.Pos) > 0 {
			r.ins.upBytesOut.Add(uint64(p.Bytes))
			r.ins.batchSize.Record(uint64(len(p.Pos)))
		}
	}
	r.stats.DroppedNoShard += len(lost)
	if len(lost) == len(hbs) {
		return lost, false, errNoShard
	}
	return lost, false, nil
}

// agentTrace is the relay's Tracer on the live stack: it stamps collects
// for the collect-to-flush histogram and hands every event to the
// configured tracer at its Unix instant.
type agentTrace struct{ r *RelayAgent }

func (t agentTrace) Emit(ev trace.Event) {
	r := t.r
	now := r.kernel.Now()
	if ev.Kind == trace.KindCollect && r.ins.collectToFlush != nil {
		r.held = append(r.held, now)
	}
	if r.cfg.Tracer != nil {
		ev.At = trace.Unix(r.epoch.Add(now))
		r.cfg.Tracer.Emit(ev)
	}
}
