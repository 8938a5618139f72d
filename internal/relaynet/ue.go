package relaynet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/session"
	"d2dhb/internal/telemetry"
	"d2dhb/internal/trace"
)

// UEApp is one registered heartbeat-producing app — the real-stack analog
// of the paper's Message Monitor, through which "app developers integrate
// the proposed D2D based framework into their existing apps" (Section
// IV-B) by declaring each app's heartbeat parameters.
type UEApp struct {
	// Name identifies the app.
	Name string
	// Period is the heartbeat interval.
	Period time.Duration
	// Expiry is the per-heartbeat expiration time (T_k).
	Expiry time.Duration
	// Pad is the nominal heartbeat size in bytes.
	Pad int
}

func (a UEApp) validate() error {
	if a.Period <= 0 || a.Expiry <= 0 {
		return fmt.Errorf("relaynet: app %q period/expiry must be positive (%v/%v)",
			a.Name, a.Period, a.Expiry)
	}
	return nil
}

// UEClientConfig parameterizes a UE client.
type UEClientConfig struct {
	// ID is the device id.
	ID string
	// App names the primary heartbeat-producing app.
	App string
	// Period is the primary app's heartbeat interval.
	Period time.Duration
	// Expiry is the primary app's per-heartbeat expiration time (T_k).
	Expiry time.Duration
	// Pad is the primary app's nominal heartbeat size in bytes.
	Pad int
	// ExtraApps registers additional apps on the same device, each with
	// its own heartbeat loop sharing the relay link and fallback path.
	ExtraApps []UEApp
	// RelayAddr is the relay's UE-side address. Empty means direct mode.
	RelayAddr string
	// FallbackRelayAddrs are additional relays tried in order when
	// RelayAddr is unreachable — the real-stack analog of the simulator's
	// nearest-relay matching with failover.
	FallbackRelayAddrs []string
	// ServerAddr is the presence server, used directly when no relay is
	// configured or as the fallback path. Ignored when Cluster is set.
	ServerAddr string
	// Cluster is the presence view the direct path dials into: every dial
	// goes to the shard owning this UE's ID under the current epoch, so a
	// reshard redirects the next connection. Nil makes ServerAddr a
	// one-node view.
	Cluster *cluster.Client
	// FeedbackTimeout is how long to wait for relay feedback before
	// resending directly. Zero selects Expiry plus a small grace.
	FeedbackTimeout time.Duration
	// Tracer receives structured events when non-nil (AtMs is Unix ms).
	Tracer trace.Tracer
	// Telemetry registers fleet-wide UE counters when non-nil. Metrics are
	// unlabeled by device: every client sharing a registry shares one set,
	// keeping cardinality flat for fleets of thousands.
	Telemetry *telemetry.Registry
	// Dial overrides every outbound dial (relay and direct paths); nil
	// selects net.Dial. Fault-injection hook (see internal/faultnet).
	Dial func(network, addr string) (net.Conn, error)
}

// dial resolves the dial hook.
func (c UEClientConfig) dial(network, addr string) (net.Conn, error) {
	if c.Dial != nil {
		return c.Dial(network, addr)
	}
	return net.Dial(network, addr)
}

func (c UEClientConfig) validate() error {
	if c.ID == "" {
		return errors.New("relaynet: empty ue id")
	}
	if c.Period <= 0 || c.Expiry <= 0 {
		return fmt.Errorf("relaynet: period/expiry must be positive (%v/%v)", c.Period, c.Expiry)
	}
	for _, a := range c.ExtraApps {
		if err := a.validate(); err != nil {
			return err
		}
	}
	return nil
}

// relayAddrs lists the relays to try, primary first.
func (c UEClientConfig) relayAddrs() []string {
	addrs := make([]string, 0, 1+len(c.FallbackRelayAddrs))
	if c.RelayAddr != "" {
		addrs = append(addrs, c.RelayAddr)
	}
	return append(addrs, c.FallbackRelayAddrs...)
}

// dialRelay tries each relay in order and keeps the first that answers —
// the real-time analog of the simulator UE re-scanning for relays. The
// session slot calls it whenever a heartbeat finds the relay link down.
func (c UEClientConfig) dialRelay(network, _ string) (conn net.Conn, err error) {
	for _, addr := range c.relayAddrs() {
		if conn, err = c.dial(network, addr); err == nil {
			return conn, nil
		}
	}
	return nil, err
}

// apps returns every registered app, primary first.
func (c UEClientConfig) apps() []UEApp {
	apps := make([]UEApp, 0, 1+len(c.ExtraApps))
	apps = append(apps, UEApp{Name: c.App, Period: c.Period, Expiry: c.Expiry, Pad: c.Pad})
	apps = append(apps, c.ExtraApps...)
	return apps
}

// UEClientStats aggregates a UE client's behaviour.
type UEClientStats struct {
	Generated       int
	ViaRelay        int
	Direct          int
	FallbackResends int
	FeedbackAcks    int
	// RelayReconnects counts successful relay (re)connections, including
	// the initial one.
	RelayReconnects int
}

// ueInstruments holds the fleet-wide UE telemetry handles. The zero value
// is a valid no-op (nil handles).
type ueInstruments struct {
	generated *telemetry.Counter
	viaRelay  *telemetry.Counter
	direct    *telemetry.Counter
	fallbacks *telemetry.Counter
	acks      *telemetry.Counter
	dials     *telemetry.Counter
}

// ueApp is one app's heartbeat loop state: its schedule, its feedback
// timeout and the heartbeats it has forwarded through the relay that still
// await feedback (guarded by UEClient.mu).
type ueApp struct {
	UEApp
	timeout time.Duration
	pending session.Pending // slot 0, by seq
}

// UEClient periodically emits heartbeats, forwarding them through a relay
// when one is reachable and falling back to the server on feedback
// timeout.
type UEClient struct {
	cfg    UEClientConfig
	ins    ueInstruments
	apps   []*ueApp
	relay  *session.Slot // nil in direct mode
	direct session.Slot

	mu      sync.Mutex
	stats   UEClientStats
	seq     uint64
	started bool
	closed  bool

	// tracked wakes the feedback loop when a heartbeat starts waiting: its
	// deadline may be earlier than the one the timer is armed for.
	tracked chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup
}

// NewUEClient returns an unstarted client.
func NewUEClient(cfg UEClientConfig) (*UEClient, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cl := cfg.Cluster
	if cl == nil {
		var err error
		if cl, err = cluster.NewSingleNodeClient(cfg.ServerAddr); err != nil {
			return nil, fmt.Errorf("relaynet: ue server: %w", err)
		}
	}
	u := &UEClient{cfg: cfg, tracked: make(chan struct{}, 1), done: make(chan struct{})}
	for _, app := range cfg.apps() {
		timeout := cfg.FeedbackTimeout
		if timeout <= 0 {
			timeout = app.Expiry + app.Expiry/10
		}
		u.apps = append(u.apps, &ueApp{
			UEApp: app, timeout: timeout,
			pending: session.Pending{Fallback: true},
		})
	}
	if addrs := cfg.relayAddrs(); len(addrs) > 0 {
		u.relay = &session.Slot{
			Dial: cfg.dialRelay,
			Addr: addrs[0],
			Register: &hbproto.Register{
				ID: cfg.ID, Role: hbproto.RoleUE, App: cfg.App,
				Period: cfg.Period, Expiry: cfg.Expiry,
			},
			OnRefs: u.onFeedback,
		}
	}
	// Server acks on the direct path are drained, not tracked: the paper's
	// UE learns about delivery only through relay feedback.
	u.direct = session.Slot{Dial: cfg.Dial, Addr: cfg.ID, Resolve: cl.OwnerAddr}
	if reg := cfg.Telemetry; reg != nil {
		u.ins = ueInstruments{
			generated: reg.Counter("relaynet_ue_generated_total"),
			viaRelay:  reg.Counter("relaynet_ue_sends_total", telemetry.L("path", "relay")),
			direct:    reg.Counter("relaynet_ue_sends_total", telemetry.L("path", "direct")),
			fallbacks: reg.Counter("relaynet_ue_sends_total", telemetry.L("path", "fallback")),
			acks:      reg.Counter("relaynet_ue_feedback_acks_total"),
			dials:     reg.Counter("relaynet_ue_relay_connects_total"),
		}
	}
	return u, nil
}

// Start begins the heartbeat loops. The first heartbeat of every app goes
// out immediately.
func (u *UEClient) Start() error {
	u.mu.Lock()
	if u.started {
		u.mu.Unlock()
		return errors.New("relaynet: ue already started")
	}
	u.started = true
	u.mu.Unlock()
	if u.connectRelay(); u.relay != nil {
		u.wg.Add(1)
		go u.feedbackLoop()
	}
	for _, app := range u.apps {
		u.wg.Add(1)
		go u.loop(app)
	}
	return nil
}

// connectRelay makes sure the relay link is up, counting each successful
// (re)connection. It reports whether the link is usable.
func (u *UEClient) connectRelay() bool {
	if u.relay == nil {
		return false
	}
	dialed, err := u.relay.Connect()
	if dialed {
		u.mu.Lock()
		u.stats.RelayReconnects++
		u.mu.Unlock()
		u.ins.dials.Inc()
	}
	return err == nil
}

// Stats returns a snapshot of the counters.
func (u *UEClient) Stats() UEClientStats {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.stats
}

// Shutdown stops the loops and closes connections.
func (u *UEClient) Shutdown() {
	u.mu.Lock()
	if u.closed || !u.started {
		u.mu.Unlock()
		return
	}
	u.closed = true
	close(u.done)
	u.mu.Unlock()
	if u.relay != nil {
		u.relay.Close()
	}
	u.direct.Close()
	u.wg.Wait()
}

// loop runs one app's heartbeat schedule.
func (u *UEClient) loop(app *ueApp) {
	defer u.wg.Done()
	ticker := time.NewTicker(app.Period)
	defer ticker.Stop()
	u.sendHeartbeat(app)
	for {
		select {
		case <-u.done:
			return
		case <-ticker.C:
			u.sendHeartbeat(app)
		}
	}
}

// feedbackLoop owns the one feedback timer, armed for the earliest
// deadline across every app's pending table. It runs beside the send
// loops so a relay link that has stalled mid-write cannot hold up the
// fallback of the heartbeats already waiting on it.
func (u *UEClient) feedbackLoop() {
	defer u.wg.Done()
	fb := time.NewTimer(time.Hour)
	defer fb.Stop()
	for {
		u.mu.Lock()
		var next time.Time
		for _, app := range u.apps {
			if at, ok := app.pending.Oldest(); ok && (next.IsZero() || at.Add(app.timeout).Before(next)) {
				next = at.Add(app.timeout)
			}
		}
		u.mu.Unlock()
		if next.IsZero() {
			resetTimer(fb, time.Hour) // parked until something is tracked
		} else {
			resetTimer(fb, time.Until(next))
		}
		select {
		case <-u.done:
			return
		case <-u.tracked:
		case <-fb.C:
			u.fallBack()
		}
	}
}

// resetTimer re-arms a timer that may already have fired.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(max(d, 0))
}

func (u *UEClient) sendHeartbeat(app *ueApp) {
	u.mu.Lock()
	// Device-wide sequence numbers (shared across apps) keep feedback refs
	// unambiguous.
	u.seq++
	hb := &hbproto.Heartbeat{
		Src: u.cfg.ID, Seq: u.seq, App: app.Name,
		Origin: time.Now(), Expiry: app.Expiry, Pad: app.Pad,
	}
	u.stats.Generated++
	u.mu.Unlock()
	u.ins.generated.Inc()
	trace.Emit(u.cfg.Tracer, trace.Event{
		AtMs: hb.Origin.UnixMilli(), Device: u.cfg.ID, Kind: trace.KindGenerated,
		App: hb.App, Seq: hb.Seq,
	})
	// A heartbeat that finds the relay link down re-matches before falling
	// back to the direct path.
	if u.connectRelay() {
		// Track before transmitting: on loopback the relay may flush, get
		// the server ack and send feedback before Send returns.
		u.mu.Lock()
		app.pending.Track(session.Key{Seq: hb.Seq}, hb.Origin)
		u.mu.Unlock()
		select {
		case u.tracked <- struct{}{}:
		default:
		}
		if _, err := u.relay.Send(hb); err == nil {
			trace.Emit(u.cfg.Tracer, trace.Event{
				AtMs: time.Now().UnixMilli(), Device: u.cfg.ID, Kind: trace.KindD2DSend,
				App: hb.App, Seq: hb.Seq,
			})
			u.mu.Lock()
			u.stats.ViaRelay++
			u.mu.Unlock()
			u.ins.viaRelay.Inc()
			return
		}
		// The relay link is dead (the slot dropped it): this heartbeat goes
		// direct right away instead of waiting out a feedback timeout.
		u.mu.Lock()
		app.pending.Forget(session.Key{Seq: hb.Seq})
		u.mu.Unlock()
	}
	u.sendDirect(hb, false)
}

// sendDirect transmits straight to the server over the lazily dialed
// direct slot. A write failure drops the cached connection and retries
// once with a freshly resolved dial: the cached conn may point at a
// presence shard that has since left the cluster, and a single stale
// connection must not cost the heartbeat its fallback delivery.
func (u *UEClient) sendDirect(hb *hbproto.Heartbeat, fallback bool) {
	sent := false
	for attempt := 0; attempt < 2 && !sent; attempt++ {
		if _, err := u.direct.Connect(); err != nil {
			return
		}
		_, err := u.direct.Send(hb)
		sent = err == nil
	}
	if !sent {
		return
	}
	kind := trace.KindDirectSend
	if fallback {
		kind = trace.KindFallback
	}
	trace.Emit(u.cfg.Tracer, trace.Event{
		AtMs: time.Now().UnixMilli(), Device: u.cfg.ID, Kind: kind,
		App: hb.App, Seq: hb.Seq,
	})
	u.mu.Lock()
	if fallback {
		u.stats.FallbackResends++
	} else {
		u.stats.Direct++
	}
	u.mu.Unlock()
	if fallback {
		u.ins.fallbacks.Inc()
	} else {
		u.ins.direct.Inc()
	}
}

// fallBack resends, directly over "cellular", every heartbeat the relay
// never confirmed in time. The direct path is untracked, so the entry is
// forgotten once it is handed over: late feedback for it counts nothing.
func (u *UEClient) fallBack() {
	var hbs []*hbproto.Heartbeat
	now := time.Now()
	u.mu.Lock()
	for _, app := range u.apps {
		keys, _ := app.pending.Sweep(now, app.timeout)
		for _, k := range keys {
			origin, _ := app.pending.Sent(k)
			app.pending.Forget(k)
			hbs = append(hbs, &hbproto.Heartbeat{
				Src: u.cfg.ID, Seq: k.Seq, App: app.Name,
				Origin: origin, Expiry: app.Expiry, Pad: app.Pad,
			})
		}
	}
	u.mu.Unlock()
	for _, hb := range hbs {
		u.sendDirect(hb, true)
	}
}

// onFeedback settles relay feedback against the apps' pending tables.
func (u *UEClient) onFeedback(_ int, refs []hbproto.Ref, at time.Time) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, ref := range refs {
		if ref.Src != u.cfg.ID {
			continue
		}
		for _, app := range u.apps {
			if _, ok := app.pending.Settle(session.Key{Seq: ref.Seq}, at); ok {
				u.stats.FeedbackAcks++
				u.ins.acks.Inc()
				trace.Emit(u.cfg.Tracer, trace.Event{
					AtMs: at.UnixMilli(), Device: u.cfg.ID,
					Kind: trace.KindAck, Seq: ref.Seq,
				})
				break
			}
		}
	}
}
