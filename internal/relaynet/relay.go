package relaynet

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
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
	// Tracer receives structured events when non-nil (AtMs is Unix ms).
	Tracer trace.Tracer
	// Dial overrides upstream (server) dialing; nil selects net.Dial.
	// Fault-injection hook (see internal/faultnet).
	Dial func(network, addr string) (net.Conn, error)
	// Listen overrides the UE-side listener construction; nil selects
	// net.Listen. Fault-injection hook.
	Listen func(network, addr string) (net.Listener, error)
	// ReconnectBase is the initial per-shard redial backoff after a failed
	// dial or a broken connection, doubled per failure up to
	// maxShardBackoff, with ±50% seeded jitter so relay fleets losing the
	// same shard do not stampede it in lockstep. Zero selects 50 ms.
	ReconnectBase time.Duration
	// Seed seeds the backoff jitter RNG; zero derives a seed from ID, so
	// distinct relays jitter differently by default.
	Seed int64
	// Cluster is the presence view the relay forwards into: every flushed
	// batch is partitioned by the current ring epoch and each sub-batch
	// goes to its owning shard over a lazily dialed per-shard connection.
	// Nil makes the serverAddr given to Start a one-node view. A shard that
	// cannot be reached costs only its own sub-batch (the affected UEs
	// recover through the feedback-timeout fallback); the relay never
	// blocks its scheduling loop on a dead shard.
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
	if c.ReconnectBase < 0 {
		return fmt.Errorf("relaynet: negative reconnect base %v", c.ReconnectBase)
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
	// event drain (each merge into an already-pending group is one write
	// the per-ack path would have issued).
	FeedbackWritesSaved int
}

// ueConn is one connected UE on the relay's "D2D" listener; it is the
// relay's ReturnPath for the heartbeats that arrive over it.
type ueConn struct {
	conn net.Conn
}

// relayEvent is the main loop's input alphabet.
type relayEvent struct {
	// at most one of ueMsg/ueClosed/acked/upErr is set; none is a timer
	// tick
	ueMsg    hbproto.Message
	ueFrom   *ueConn
	ueClosed *ueConn
	acked    []hbproto.Ref
	upErr    error
	// upShard attributes an upstream error to the shard whose connection
	// broke.
	upShard string
}

// RelayAgent is the live substrate of device.Relay, Algorithm 1 stated once
// for simulator and network alike: it accepts UE connections, hands their
// heartbeats to the relay, forwards its flushes to the presence shards and
// confirms each heartbeat a shard acknowledges, which sends the UE its
// feedback.
//
// The relay runs on a simtime.Scheduler whose instant 0 is the agent's
// start. The run goroutine owns both and advances the scheduler to the
// wall clock before it handles anything (see step), so Algorithm 1's
// boundaries and deadlines run at their own instants, in the kernel's
// order, however late the wall timer that announces them fires.
type RelayAgent struct {
	cfg RelayAgentConfig
	// cluster is cfg.Cluster, or the one-node view Start builds from its
	// server address; set before the run loop starts.
	cluster *cluster.Client

	mu sync.Mutex
	ln net.Listener
	// ups maps shard ID -> upstream session slot. The run loop creates
	// slots on first use; Shutdown closes them all.
	ups     map[string]*session.Slot
	started bool
	closed  bool
	stats   RelayAgentStats

	events chan relayEvent
	done   chan struct{}
	wg     sync.WaitGroup

	// main-loop state (owned by run goroutine)
	relay   *device.Relay
	kernel  *simtime.Scheduler
	epoch   time.Time // the wall instant of kernel instant 0
	ueConns map[*ueConn]struct{}
	rng     *rand.Rand // backoff jitter
	// downUntil/backoffCur arm the per-shard redial backoff so flush never
	// hammers a dead shard, and everDialed distinguishes a reconnect from a
	// shard's first dial in the stats.
	downUntil  map[string]time.Duration
	backoffCur map[string]time.Duration
	everDialed map[string]bool
	// held stamps each heartbeat in the window with its collect instant,
	// in collect order, for the collect-to-flush histogram (telemetry
	// only); the next flush drains it.
	held []time.Duration
	// pendingFB accumulates acked refs per UE connection across the acks
	// of one event drain; flushFeedback writes one Feedback frame per UE.
	// ackTouched and merged are handleAck's per-call record of the UEs it
	// fed and of merges into refs an earlier ack left pending.
	// batchMsg/fbBuf/fbMsg are reusable encode state.
	pendingFB  map[*ueConn][]hbproto.Ref
	ackTouched map[*ueConn]bool
	merged     int
	batchMsg   hbproto.Batch
	fbBuf      []byte
	fbMsg      hbproto.Feedback

	ins relayInstruments
}

// relayInstruments is the agent's live-telemetry handle block; every
// handle is nil (a no-op) without a configured registry.
type relayInstruments struct {
	collected      *telemetry.Counter
	feedbacks      *telemetry.Counter
	reconnectTries *telemetry.Counter
	reconnects     *telemetry.Counter
	shardDrops     *telemetry.Counter
	batchSize      *telemetry.Histogram
	collectToFlush *telemetry.Histogram
	// Wire-path coalescing: feedback frames written, per-ack feedback
	// writes saved by merging, refs per feedback frame, and bytes written
	// upstream per flush.
	fbFlushes  *telemetry.Counter
	fbSaved    *telemetry.Counter
	fbRefs     *telemetry.Histogram
	upBytesOut *telemetry.Counter
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
	seed := cfg.Seed
	if seed == 0 {
		// FNV-1a over the relay ID: distinct relays jitter differently
		// without any wall-clock dependence.
		h := uint64(14695981039346656037)
		for i := 0; i < len(cfg.ID); i++ {
			h = (h ^ uint64(cfg.ID[i])) * 1099511628211
		}
		seed = int64(h)
	}
	r := &RelayAgent{
		cfg:        cfg,
		ups:        make(map[string]*session.Slot),
		events:     make(chan relayEvent),
		done:       make(chan struct{}),
		kernel:     simtime.NewScheduler(seed),
		ueConns:    make(map[*ueConn]struct{}),
		downUntil:  make(map[string]time.Duration),
		backoffCur: make(map[string]time.Duration),
		everDialed: make(map[string]bool),
		pendingFB:  make(map[*ueConn][]hbproto.Ref),
		ackTouched: make(map[*ueConn]bool),
		rng:        rand.New(rand.NewSource(seed)),
	}
	if reg := cfg.Telemetry; reg != nil {
		rl := telemetry.L("relay", cfg.ID)
		r.ins = relayInstruments{
			collected:      reg.Counter("relaynet_relay_collected_total", rl),
			feedbacks:      reg.Counter("relaynet_relay_feedbacks_total", rl),
			reconnectTries: reg.Counter("relaynet_relay_reconnect_attempts_total", rl),
			reconnects:     reg.Counter("relaynet_relay_reconnects_total", rl),
			shardDrops:     reg.Counter("relaynet_relay_shard_drops_total", rl),
			batchSize:      reg.Histogram("relaynet_relay_batch_size", "msgs", 1, rl),
			collectToFlush: reg.Histogram("relaynet_relay_collect_to_flush_us", "us", 1, rl),
			fbFlushes:      reg.Counter("relaynet_relay_feedback_flushes_total", rl),
			fbSaved:        reg.Counter("relaynet_relay_feedback_writes_saved_total", rl),
			fbRefs:         reg.Histogram("relaynet_relay_feedback_refs_per_flush", "refs", 1, rl),
			upBytesOut:     reg.Counter("relaynet_relay_upstream_bytes_total", rl),
		}
		// The Algorithm 1 scheduler records its own occupancy-vs-capacity
		// and deadline-slack figures from the instants the relay injects —
		// telemetry never hands it the wall clock.
		kl := telemetry.L("policy", policy.Kind().String())
		policy.SetInstruments(&sched.Instruments{
			Occupancy:     reg.Histogram("sched_pending_occupancy", "msgs", 1, rl, kl),
			FlushSize:     reg.Histogram("sched_flush_size", "msgs", 1, rl, kl),
			FlushSlack:    reg.Histogram("sched_flush_slack_us", "us", 1, rl, kl),
			Capacity:      reg.Gauge("sched_capacity", rl, kl),
			RejectClosed:  reg.Counter("sched_rejects_total", telemetry.L("reason", "closed"), rl, kl),
			RejectExpired: reg.Counter("sched_rejects_total", telemetry.L("reason", "expired"), rl, kl),
		})
		reg.Gauge("sched_capacity", rl, kl).Set(int64(policy.Capacity()))
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
	// The first period opens at kernel instant 0, the loop's first step.
	if err := r.relay.Start(); err != nil {
		return nil, err
	}
	return r, nil
}

// upstream returns the session slot for a shard's upstream connection,
// creating it on first use; nil once the agent is shutting down. The slot
// owns dialing, registration and the ack reader: acks and reader errors
// come back to the run loop as events.
func (r *RelayAgent) upstream(shard string) *session.Slot {
	r.mu.Lock()
	defer r.mu.Unlock()
	if slot, ok := r.ups[shard]; ok || r.closed {
		return slot
	}
	// Every (re)connect targets the address the current view gives the
	// shard, so a restarted shard is found where the router now puts it.
	slot := &session.Slot{
		Dial: r.cfg.Dial, Addr: shard, Resolve: r.cluster.NodeAddr,
		Register: &hbproto.Register{
			ID: r.cfg.ID, Role: hbproto.RoleRelay, App: r.cfg.App,
			Period: r.cfg.Period, Expiry: r.cfg.Expiry,
		},
		OnRefs: func(_ int, refs []hbproto.Ref, _ time.Time) {
			// Copy out of the reader's reused slice (see ueReader).
			r.post(relayEvent{acked: append([]hbproto.Ref(nil), refs...)})
		},
		OnDown: func(err error) { r.post(relayEvent{upErr: err, upShard: shard}) },
	}
	r.ups[shard] = slot
	return slot
}

// post hands an event to the run loop; false means the agent has stopped.
func (r *RelayAgent) post(ev relayEvent) bool {
	select {
	case r.events <- ev:
		return true
	case <-r.done:
		return false
	}
}

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
	r.cluster = cl
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
	r.wg.Add(2)
	r.mu.Unlock()

	go r.acceptLoop()
	go r.run()
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

// Shutdown stops the agent and waits for its goroutines. Pending collected
// heartbeats are lost — exactly the failure the UE fallback covers.
func (r *RelayAgent) Shutdown() {
	r.mu.Lock()
	if r.closed || !r.started {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.done)
	// ln is nil when Start is still mid-listen; Start sees closed=true and
	// closes its own listener.
	if r.ln != nil {
		_ = r.ln.Close()
	}
	ups := make([]*session.Slot, 0, len(r.ups))
	for _, slot := range r.ups {
		ups = append(ups, slot)
	}
	r.mu.Unlock()
	for _, slot := range ups {
		slot.Close()
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
		r.mu.Unlock()
		r.wg.Add(1)
		go r.ueReader(uc)
	}
}

// ueReader decodes frames from one UE and forwards them to the main loop.
// It decodes through a FrameReader (reused scratch, interned strings) and
// copies each message into an owned value before handing it over: the run
// loop processes the event after this goroutine has already moved on to
// the next frame, so the reader's reused values must not cross the
// channel. Interned strings are stable and copy for free.
func (r *RelayAgent) ueReader(uc *ueConn) {
	defer r.wg.Done()
	defer func() { _ = uc.conn.Close() }()
	fr := hbproto.NewFrameReader(uc.conn)
	for {
		msg, err := fr.Next()
		if err != nil {
			r.post(relayEvent{ueClosed: uc})
			return
		}
		switch m := msg.(type) {
		case *hbproto.Register:
			c := *m
			msg = &c
		case *hbproto.Heartbeat:
			c := *m
			msg = &c
		default:
			continue // UEs only register and send heartbeats
		}
		if !r.post(relayEvent{ueMsg: msg, ueFrom: uc}) {
			return
		}
	}
}

// Upstream redial policy: the backoff doubles from the base per failure.
const (
	defaultReconnectBase = 50 * time.Millisecond
	// maxShardBackoff caps the per-shard redial backoff: a shard's dial is
	// retried at every flush past its backoff for as long as the relay
	// runs, so the backoff needs a ceiling rather than an attempt budget.
	maxShardBackoff = 5 * time.Second
)

// reconnectBase resolves the configured backoff base.
func (r *RelayAgent) reconnectBase() time.Duration {
	if r.cfg.ReconnectBase > 0 {
		return r.cfg.ReconnectBase
	}
	return defaultReconnectBase
}

// jittered spreads one backoff across [d/2, 3d/2) using the relay's seeded
// RNG: when a whole relay fleet loses the same server, their redial storms
// decorrelate instead of arriving in doubling lockstep.
func (r *RelayAgent) jittered(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.5 + r.rng.Float64()))
}

// armShardBackoff schedules the next allowed dial for a shard after a
// failure, doubling up to maxShardBackoff.
func (r *RelayAgent) armShardBackoff(shard string, now time.Duration) {
	b := r.backoffCur[shard]
	if b == 0 {
		b = r.reconnectBase()
	}
	r.downUntil[shard] = now + r.jittered(b)
	if b *= 2; b > maxShardBackoff {
		b = maxShardBackoff
	}
	r.backoffCur[shard] = b
}

// shardConn returns a shard's upstream slot with a live connection,
// dialing it if absent and not in backoff. A failed dial arms the shard's
// backoff and returns nil — the caller drops that sub-batch and the
// scheduling loop moves on.
func (r *RelayAgent) shardConn(shard string) *session.Slot {
	slot := r.upstream(shard)
	if slot == nil || slot.Connected() {
		return slot
	}
	now := r.kernel.Now()
	if until, ok := r.downUntil[shard]; ok && now < until {
		return nil
	}
	r.ins.reconnectTries.Inc()
	if _, err := slot.Connect(); err != nil {
		r.armShardBackoff(shard, now)
		return nil
	}
	delete(r.downUntil, shard)
	delete(r.backoffCur, shard)
	r.ins.reconnects.Inc()
	r.mu.Lock()
	r.stats.ShardDials++
	if r.everDialed[shard] {
		r.stats.UpstreamReconnects++
	}
	r.mu.Unlock()
	r.everDialed[shard] = true
	return slot
}

// run is the single goroutine owning the relay and its kernel. One wall
// timer points at the kernel's next action; whatever wakes the loop, step
// runs what is due first. A tick that finds nothing due — the timer
// re-armed while it was firing — therefore does nothing.
func (r *RelayAgent) run() {
	defer r.wg.Done()
	r.epoch = time.Now()
	wake := time.NewTimer(0)
	defer wake.Stop()

	// maxEventDrain bounds how many queued events one loop iteration may
	// absorb before feedback is flushed and the timer gets a look-in.
	const maxEventDrain = 64

	for {
		select {
		case <-r.done:
			return
		case <-wake.C:
			r.step(time.Since(r.epoch), relayEvent{})
		case ev := <-r.events:
			// Drain whatever else is already queued (bounded) before
			// flushing feedback, so refs from several acks — one per
			// shard — merge into one Feedback frame per UE instead of one
			// write per ack.
			for n := 0; ; n++ {
				r.step(time.Since(r.epoch), ev)
				if n >= maxEventDrain {
					break
				}
				select {
				case ev = <-r.events:
					continue
				default:
				}
				break
			}
			r.flushFeedback()
		}
		r.publish()
		if at, ok := r.kernel.NextAt(); ok {
			wake.Reset(at - time.Since(r.epoch))
		}
	}
}

// step advances the relay's kernel to instant at, running every period
// boundary and flush deadline due by then at its own instant, and then
// handles ev there. A UE heartbeat that arrives after a boundary whose
// timer has not fired yet is thus collected into the new window.
func (r *RelayAgent) step(at time.Duration, ev relayEvent) {
	_ = r.kernel.RunUntil(at) // errs only for an instant in the past; wall time does not run backwards
	r.handleEvent(ev)
}

// publish copies the relay's counters to where Stats reads them.
func (r *RelayAgent) publish() {
	st := r.relay.Stats()
	r.mu.Lock()
	r.stats.RelayStats = st
	r.mu.Unlock()
}

// handleEvent dispatches one main-loop event.
func (r *RelayAgent) handleEvent(ev relayEvent) {
	switch {
	case ev.ueMsg != nil:
		r.handleUE(ev.ueFrom, ev.ueMsg)
	case ev.ueClosed != nil:
		delete(r.ueConns, ev.ueClosed)
		delete(r.pendingFB, ev.ueClosed)
	case ev.acked != nil:
		r.handleAck(ev.acked)
	case ev.upErr != nil:
		// A shard broke (the slot already retired its connection): back
		// off. The next flush past the backoff redials; meanwhile the other
		// shards keep their schedule — the relay never blocks its run loop
		// on one dead shard. Skipped when shutting down, or for a stale
		// error from a connection a later flush has already replaced.
		if slot := r.upstream(ev.upShard); slot != nil && !slot.Connected() {
			r.armShardBackoff(ev.upShard, r.kernel.Now())
		}
	}
}

func (r *RelayAgent) handleUE(uc *ueConn, msg hbproto.Message) {
	switch m := msg.(type) {
	case *hbproto.Register:
		r.ueConns[uc] = struct{}{}
	case *hbproto.Heartbeat:
		now := r.kernel.Now()
		r.relay.Receive(hbmsg.Heartbeat{
			App:    m.App,
			Src:    hbmsg.DeviceID(m.Src),
			Seq:    m.Seq,
			Origin: now - time.Since(m.Origin), // arrival-relative origin
			Expiry: m.Expiry,
			Size:   m.Pad,
		}, uc)
	}
}

// handleAck confirms every heartbeat a shard acknowledged; the relay finds
// its UE and feeds back through agentRadio.Ack. Acks from every shard
// funnel through the same path, and refs from several acks merge into one
// Feedback frame per UE (the saved writes are counted).
func (r *RelayAgent) handleAck(refs []hbproto.Ref) {
	for _, ref := range refs {
		r.relay.Confirm(hbmsg.DeviceID(ref.Src), ref.Seq)
	}
	clear(r.ackTouched)
	if saved := r.merged; saved > 0 {
		r.merged = 0
		r.ins.fbSaved.Add(uint64(saved))
		r.mu.Lock()
		r.stats.FeedbackWritesSaved += saved
		r.mu.Unlock()
	}
}

// flushFeedback writes the accumulated feedback: one frame — one Write —
// per UE connection, composed in the run loop's reusable buffer. Write
// order across UEs is not observable (each write targets a different
// connection), so plain map iteration is fine here, as it was on the old
// per-ack path.
func (r *RelayAgent) flushFeedback() {
	for uc, refs := range r.pendingFB {
		delete(r.pendingFB, uc)
		if len(refs) == 0 {
			continue
		}
		r.fbMsg.Refs = refs
		out, err := hbproto.AppendFrame(r.fbBuf[:0], &r.fbMsg)
		r.fbBuf, r.fbMsg.Refs = out[:0], nil
		if err != nil {
			continue
		}
		if _, err := uc.conn.Write(out); err != nil {
			continue
		}
		r.ins.feedbacks.Add(uint64(len(refs)))
		r.ins.fbFlushes.Inc()
		r.ins.fbRefs.Record(uint64(len(refs)))
	}
}

// errUEGone is agentRadio.Ack's answer for a UE whose connection closed
// before its heartbeat was acknowledged.
var errUEGone = errors.New("relaynet: UE connection gone")

// agentRadio is the agent's UE side as the relay's RelayRadio. Discovery is
// the listener, so there is nothing to advertise or stop answering.
type agentRadio struct{ r *RelayAgent }

func (agentRadio) Advertise(int, int) {}

func (agentRadio) Shutdown() {}

// Ack queues one feedback ref for its UE; flushFeedback writes it at the
// end of the event drain.
func (a agentRadio) Ack(via device.ReturnPath, ref d2d.AckRef) error {
	r, uc := a.r, via.(*ueConn)
	if _, alive := r.ueConns[uc]; !alive {
		return errUEGone
	}
	if !r.ackTouched[uc] {
		r.ackTouched[uc] = true
		if len(r.pendingFB[uc]) > 0 {
			// Refs from an earlier ack in this drain are still pending for
			// the UE: the per-ack path would have written them as a
			// separate Feedback frame.
			r.merged++
		}
	}
	r.pendingFB[uc] = append(r.pendingFB[uc], hbproto.Ref{Src: string(ref.Src), Seq: ref.Seq})
	return nil
}

// errNoShard is agentUplink.Forward's answer when no shard took any part
// of a flush.
var errNoShard = errors.New("relaynet: no shard reachable")

// agentUplink is the agent's shard slots as the relay's Forwarder. The
// shards acknowledge later, through handleAck.
type agentUplink struct{ r *RelayAgent }

// Forward partitions one flush by the current ring epoch — exactly one
// View per flush, so a batch never mixes two epochs — and sends each
// sub-batch to its owning shard. A shard that cannot be reached loses only
// its own sub-batch.
func (u agentUplink) Forward(hbs []hbmsg.Heartbeat) (lost []int, acked bool, err error) {
	r := u.r
	now := r.kernel.Now()
	for _, at := range r.held {
		r.ins.collectToFlush.Record(uint64((now - at) / time.Microsecond))
	}
	r.held = r.held[:0]
	wire := make([]hbproto.Heartbeat, len(hbs))
	keys := make([]string, len(hbs))
	for i, hb := range hbs {
		wire[i] = hbproto.Heartbeat{
			Src: string(hb.Src), Seq: hb.Seq, App: hb.App,
			Origin: r.epoch.Add(hb.Origin), Expiry: hb.Expiry, Pad: hb.Size,
		}
		if keys[i] = wire[i].Src; keys[i] == r.cfg.ID {
			wire[i].App, wire[i].Expiry, wire[i].Pad = r.cfg.App, r.cfg.Expiry, r.cfg.Pad
		}
	}
	for _, g := range r.cluster.View().Ring().GroupSorted(keys) {
		sub := make([]hbproto.Heartbeat, 0, len(g.Idxs))
		for _, i := range g.Idxs {
			sub = append(sub, wire[i])
		}
		// A failed send drops the connection; the reader's error event
		// then arms the shard's backoff.
		if slot := r.shardConn(g.Shard); slot == nil || !r.sendBatch(slot, sub) {
			r.ins.shardDrops.Add(uint64(len(sub)))
			r.mu.Lock()
			r.stats.DroppedNoShard += len(sub)
			r.mu.Unlock()
			lost = append(lost, g.Idxs...)
		}
	}
	if len(lost) == len(hbs) {
		return lost, false, errNoShard
	}
	return lost, false, nil
}

// sendBatch writes one wire batch to an upstream slot as a single Write.
func (r *RelayAgent) sendBatch(slot *session.Slot, hbs []hbproto.Heartbeat) bool {
	r.batchMsg.Relay, r.batchMsg.HBs = r.cfg.ID, hbs
	n, err := slot.Send(&r.batchMsg)
	r.batchMsg.HBs = nil
	if err != nil {
		return false
	}
	r.ins.upBytesOut.Add(uint64(n))
	r.ins.batchSize.Record(uint64(len(hbs)))
	return true
}

// agentTrace is the relay's Tracer on the live stack: it counts and stamps
// collects for /metrics and hands every event to the configured tracer
// with AtMs in Unix milliseconds.
type agentTrace struct{ r *RelayAgent }

func (t agentTrace) Emit(ev trace.Event) {
	r := t.r
	now := r.kernel.Now()
	if ev.Kind == trace.KindCollect {
		r.ins.collected.Inc()
		if r.ins.collectToFlush != nil {
			r.held = append(r.held, now)
		}
	}
	if r.cfg.Tracer != nil {
		ev.AtMs = r.epoch.Add(now).UnixMilli()
		r.cfg.Tracer.Emit(ev)
	}
}
