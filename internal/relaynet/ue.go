package relaynet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/rec"
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
	// Apps are the device's heartbeat-producing apps, primary first. Each
	// keeps its own schedule; all share the relay link and the fallback
	// path, and the device registers with a relay under the primary one.
	// The client only reads the slice, so UEs running the same apps may
	// share one.
	Apps []UEApp
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
	// FeedbackTimeout is how long a heartbeat waits for its
	// acknowledgement — the relay's feedback, or the server's own ack on
	// the direct path — before a relayed UE resends it directly, once, and
	// before it is written off as timed out otherwise (a direct send, or a
	// resend that went unacknowledged too). Zero selects each app's Expiry
	// plus a tenth.
	FeedbackTimeout time.Duration
	// Tracer receives structured events when non-nil (AtMs is Unix ms).
	Tracer trace.Tracer
	// Dial overrides every outbound dial (relay and direct paths); nil
	// selects net.Dial. Fault-injection hook (see internal/faultnet).
	Dial func(network, addr string) (net.Conn, error)
	// Recorder, when non-nil, records the UE's sends, acknowledgements and
	// timeouts as client RecorderIndex of the recording's client table.
	Recorder      *rec.Recorder
	RecorderIndex int
	// Latency, when non-nil, receives each acknowledged heartbeat's latency
	// in microseconds, counted from the send that got it acknowledged.
	Latency *telemetry.Recorder
}

func (c UEClientConfig) validate() error {
	if c.ID == "" {
		return errors.New("relaynet: empty ue id")
	}
	if len(c.Apps) == 0 {
		return errors.New("relaynet: ue has no app")
	}
	for _, a := range c.Apps {
		if err := a.validate(); err != nil {
			return err
		}
	}
	return nil
}

// UEClientStats aggregates a UE client's behaviour. Every generated
// heartbeat ends exactly once, in Acked or Timeouts; after Shutdown,
// Generated = Acked + Timeouts. The counters are 32 bits wide because a
// fleet holds one set per UE; a UE heartbeating every second takes 136
// years to wrap one.
type UEClientStats struct {
	Generated uint32
	// ViaRelay and Direct count first sends whose frame reached the relay
	// or the owning shard; FallbackResends the direct resends of relayed
	// heartbeats whose ack window lapsed.
	ViaRelay, Direct, FallbackResends uint32
	// Acked counts heartbeats acknowledged over either path, FeedbackAcks
	// those of them the relay's feedback confirmed. Timeouts counts those
	// written off: their last ack window lapsed, or Shutdown came first.
	Acked, FeedbackAcks, Timeouts uint32
	// RelayReconnects counts successful relay (re)connections, including
	// the initial one.
	RelayReconnects uint32
	// DialErrors and WriteErrors count sends whose frame never reached the
	// wire: the link could not be dialled, or the write failed. A relay
	// that cannot be dialled is not one — the heartbeat goes direct.
	DialErrors, WriteErrors uint32
	// OutOfOrderAcks counts acknowledgements of a seq at or below one
	// already acknowledged; only a fallback resend can cause one.
	OutOfOrderAcks uint32
}

// ueExtra is what only some UEs use, behind one pointer so that a fleet
// UE without any of it — one app, no tracer, a loop its owner runs — stays
// one small allocation.
type ueExtra struct {
	more   []session.Pending // apps[1:]'s heartbeats in flight, by seq
	tracer trace.Tracer
	done   chan struct{} // closes the loop Start runs
	loop   sync.WaitGroup
}

// UEClient is the paper's UE on the live stack: it emits each app's
// heartbeats on its schedule, forwards them through a relay when one is
// reachable and sends them straight to its owning shard when none is, and
// resends a relayed heartbeat directly, once, when the relay's feedback
// does not come back within the ack window. Both paths are acknowledged:
// relay feedback and the server's own acks settle the same pending table,
// so the client measures each heartbeat's latency and counts every one it
// loses.
//
// Start runs the UE's loop on a goroutine of its own; a fleet runs each
// UE's loop itself (Run, with an arrival offset), and a replay drives Send
// directly. Either way one goroutine sends, and the client's connections'
// readers settle acknowledgements beside it.
type UEClient struct {
	id      string
	apps    []UEApp
	timeout time.Duration // FeedbackTimeout: zero derives each app's window from its expiry
	dial    func(network, addr string) (net.Conn, error)
	owner   func(id string) string // the cluster view's owner lookup
	rec     *rec.Recorder
	latency *telemetry.Recorder
	x       *ueExtra // set before the UE goes live: by NewUEClient or Start

	// primary is a relayed UE's link to its relay and a direct UE's link to
	// its owning shard; only the sending goroutine writes on it.
	primary session.Slot

	mu       sync.Mutex
	fallback *session.Slot   // a relayed UE's link to its owning shard, opened on first use
	stall    *time.Timer     // a relayed UE's watchdog, armed while the relay is dialled or written
	pending  session.Pending // apps[0]'s heartbeats in flight, by seq
	last     uint64          // highest acknowledged seq
	n        UEClientStats
	tidx     int32 // RecorderIndex
	relaying bool  // a relay dial or write is under way
	closed   bool
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
	u := &UEClient{
		id: cfg.ID, apps: cfg.Apps, timeout: cfg.FeedbackTimeout, dial: cfg.Dial,
		owner: cl.Owner(), rec: cfg.Recorder, latency: cfg.Latency, tidx: int32(cfg.RecorderIndex),
	}
	relayed := cfg.RelayAddr != "" || len(cfg.FallbackRelayAddrs) > 0
	if len(cfg.Apps) > 1 || cfg.Tracer != nil {
		u.x = &ueExtra{more: make([]session.Pending, len(cfg.Apps)-1), tracer: cfg.Tracer}
		for i := range u.x.more {
			u.x.more[i].Fallback = relayed
		}
	}
	if !relayed {
		u.primary = session.Slot{Dial: cfg.Dial, Addr: cfg.ID, Resolve: u.owner, OnRefs: u.onAck}
		return u, nil
	}
	// Relays deliver feedback only to registered UE connections.
	app := cfg.Apps[0]
	u.pending.Fallback = true
	u.primary = session.Slot{
		Dial: cfg.Dial, Addr: cfg.RelayAddr,
		Register: &hbproto.Register{
			ID: cfg.ID, Role: hbproto.RoleUE, App: app.Name,
			Period: app.Period, Expiry: app.Expiry,
		},
		OnRefs: u.onFeedback,
	}
	if len(cfg.FallbackRelayAddrs) > 0 {
		// Try each relay in order and keep the first that answers — the
		// real-time analog of the simulator UE re-scanning for relays.
		addrs := append([]string{cfg.RelayAddr}, cfg.FallbackRelayAddrs...)
		if cfg.RelayAddr == "" {
			addrs = addrs[1:]
		}
		dial := cfg.Dial
		if dial == nil {
			dial = net.Dial
		}
		u.primary.Addr = addrs[0]
		u.primary.Dial = func(network, _ string) (conn net.Conn, err error) {
			for _, addr := range addrs {
				if conn, err = dial(network, addr); err == nil {
					return conn, nil
				}
			}
			return nil, err
		}
	}
	return u, nil
}

// Start runs the UE's loop on a goroutine of its own until Shutdown. The
// first heartbeat of every app goes out at once.
func (u *UEClient) Start() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed || u.x != nil && u.x.done != nil {
		return errors.New("relaynet: ue already started or shut down")
	}
	if u.x == nil {
		u.x = new(ueExtra)
	}
	x := u.x
	x.done = make(chan struct{})
	x.loop.Add(1)
	go func() {
		defer x.loop.Done()
		u.Run(x.done, 0)
	}()
	return nil
}

// Stats returns a snapshot of the counters.
func (u *UEClient) Stats() UEClientStats {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.n
}

// InFlight returns how many heartbeats await acknowledgement.
func (u *UEClient) InFlight() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	n := 0
	for i := range u.apps {
		n += u.table(i).Len()
	}
	return n
}

// Shutdown stops the loop Start runs, closes the UE's links and writes off
// every heartbeat still in flight as timed out. A loop the caller runs
// must have returned first. Shutdown is idempotent.
func (u *UEClient) Shutdown() {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return
	}
	u.closed = true
	x := u.x
	u.mu.Unlock()
	if x != nil && x.done != nil {
		close(x.done)
		u.closeLinks() // a send blocked on a link returns
		x.loop.Wait()
	}
	u.closeLinks() // again: the loop may have opened the fallback meanwhile
	u.mu.Lock()
	now := time.Now()
	for i := range u.apps {
		u.timedOut(u.table(i).Drain(), now)
	}
	if u.stall != nil {
		u.stall.Stop()
	}
	u.mu.Unlock()
}

// closeLinks closes both links and waits for their readers.
func (u *UEClient) closeLinks() {
	u.primary.Close()
	u.mu.Lock()
	fb := u.fallback
	u.mu.Unlock()
	if fb != nil {
		fb.Close()
	}
}

// sendGrain is the resolution of the UE send timers: every UE keeps its
// own schedule (arrival offset + k·period), but a send fires at the last
// instant of a process-wide sendGrain grid at or before the moment it is
// due, so UEs due within one grain share a wake-up. Without it each of a
// few thousand UEs in one process wakes it on its own, and what one
// heartbeat costs is set less by the stack than by whether the kernel
// keeps the runtime's threads on one CPU or spreads them (two modes, ~25 %
// apart, for the life of a process). A period shorter than a grain still
// averages out: the sends due within one grain go out together.
const sendGrain = 10 * time.Millisecond

// gridEpoch anchors the grid; it carries a monotonic reading, so the grid
// does not move with the wall clock.
var gridEpoch = time.Now()

// onGrid moves an instant back onto the send grid.
func onGrid(t time.Time) time.Time {
	return gridEpoch.Add(t.Sub(gridEpoch).Truncate(sendGrain))
}

// nextDue returns the point of the schedule due, due+period, … that follows
// the tick for due and is still ahead at now: a tick held up past later
// ones drops them, as a time.Ticker would.
func nextDue(due time.Time, period time.Duration, now time.Time) time.Time {
	due = due.Add(period)
	if late := now.Sub(due); late >= 0 {
		due = due.Add((late/period + 1) * period)
	}
	return due
}

// Run is the UE's heartbeat loop: every app heartbeats first offset from
// now and then once a period, until done closes. Each wake-up sweeps the
// heartbeats in flight before it sends, and the loop also wakes when an ack
// window lapses between sends, so a fallback is never held back by a long
// period. Heartbeats are numbered across apps, which keeps feedback refs
// unambiguous. The links' readers outlive the loop, so a drain can still
// collect acknowledgements after it returns.
func (u *UEClient) Run(done <-chan struct{}, offset time.Duration) {
	first := time.Now().Add(offset)
	due := make([]time.Time, len(u.apps))
	for i := range due {
		due[i] = first
	}
	t := time.NewTimer(time.Until(u.wake(due)))
	defer t.Stop()
	var seq uint64
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
		u.Sweep(time.Now())
		for i := range due {
			if now := time.Now(); !onGrid(due[i]).After(now) {
				seq++
				u.Send(i, seq, now)
				due[i] = nextDue(due[i], u.apps[i].Period, time.Now())
			}
		}
		t.Reset(time.Until(u.wake(due)))
	}
}

// wake is when the loop next has work: the earliest app due, on the grid,
// or the first grid instant after the earliest ack window in flight lapses.
func (u *UEClient) wake(due []time.Time) time.Time {
	next := onGrid(due[0])
	for _, d := range due[1:] {
		if g := onGrid(d); g.Before(next) {
			next = g
		}
	}
	u.mu.Lock()
	lapse, ok := u.lapse()
	u.mu.Unlock()
	if at := onGrid(lapse).Add(sendGrain); ok && at.Before(next) {
		next = at
	}
	return next
}

// lapse returns when the earliest ack window in flight closes (u.mu held).
func (u *UEClient) lapse() (at time.Time, ok bool) {
	for i := range u.apps {
		if opened, in := u.table(i).Oldest(); in {
			if end := opened.Add(u.window(i)); !ok || end.Before(at) {
				at, ok = end, true
			}
		}
	}
	return at, ok
}

// Send offers heartbeat seq of app i, generated at now, through the relay
// when its link is up or can be dialled, and straight to the owning shard
// when it cannot. It is the UE's one send path: its loop numbers the
// heartbeats, a replay hands in the recorded ones. A relay write that
// fails keeps the heartbeat in flight for the fallback resend.
func (u *UEClient) Send(app int, seq uint64, now time.Time) {
	hb := u.heartbeat(app, seq, now)
	k := session.Key{Seq: seq}
	u.mu.Lock()
	// Track before transmitting: on loopback the relay may flush, get the
	// server ack and send feedback before the write returns.
	u.table(app).Track(k, now)
	u.n.Generated++
	u.mu.Unlock()
	u.emit(trace.KindGenerated, hb.App, seq, now)
	if u.relayed() {
		if up, err := u.viaRelay(hb); up {
			u.mu.Lock()
			if err != nil {
				u.n.WriteErrors++
				u.table(app).Abandon(k)
			} else {
				u.n.ViaRelay++
				u.rec.Record(rec.EvSend, int(u.tidx), seq, now)
			}
			u.mu.Unlock()
			if err == nil {
				u.emit(trace.KindD2DSend, hb.App, seq, time.Now())
			}
			return
		}
	}
	u.sendDirect(hb, false)
}

// relayed reports whether the UE forwards through a relay: only its relay
// link registers.
func (u *UEClient) relayed() bool { return u.primary.Register != nil }

// viaRelay makes sure the relay link is up and writes hb on it. up is
// false when no relay could be dialled. The watchdog is armed meanwhile:
// a relay link stalled mid-dial or mid-frame must not hold up the
// fallback of the heartbeats already waiting on their windows.
func (u *UEClient) viaRelay(hb *hbproto.Heartbeat) (up bool, err error) {
	u.watch()
	defer u.unwatch()
	dialed, err := u.primary.Connect()
	if dialed {
		u.mu.Lock()
		u.n.RelayReconnects++
		u.mu.Unlock()
	}
	if err != nil {
		return false, err
	}
	_, err = u.primary.Send(hb)
	return true, err
}

// watch arms the watchdog for the earliest ack window in flight; the
// heartbeat about to be written is in flight already.
func (u *UEClient) watch() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.relaying = true
	at, _ := u.lapse()
	if u.stall == nil {
		u.stall = time.AfterFunc(time.Until(at), u.onStall)
	} else {
		u.stall.Reset(time.Until(at))
	}
}

// unwatch disarms the watchdog once the relay call has returned.
func (u *UEClient) unwatch() {
	u.mu.Lock()
	u.relaying = false
	u.stall.Stop()
	u.mu.Unlock()
}

// onStall is the watchdog: a relay dial or write has outlasted an ack
// window, so it sweeps in the sending goroutine's place, and re-arms for
// the next window for as long as the relay call lasts.
func (u *UEClient) onStall() {
	u.mu.Lock()
	stalled := u.relaying
	u.mu.Unlock()
	if stalled {
		u.Sweep(time.Now())
	}
	u.mu.Lock()
	if at, ok := u.lapse(); ok && u.relaying {
		u.stall.Reset(time.Until(at))
	}
	u.mu.Unlock()
}

// directSlot returns the link to the UE's owning shard: a direct UE's
// primary, a relayed UE's fallback link, opened on first use.
func (u *UEClient) directSlot() *session.Slot {
	if !u.relayed() {
		return &u.primary
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.fallback == nil {
		u.fallback = &session.Slot{Dial: u.dial, Addr: u.id, Resolve: u.owner, OnRefs: u.onAck}
	}
	return u.fallback
}

// sendDirect writes hb to the UE's owning shard. A write failure drops the
// cached connection and retries once with a freshly resolved dial: the
// cached connection may point at a shard that has since left the cluster.
// A heartbeat that still misses the wire stays in flight, so its window
// decides it: a relayed UE resends it once, anything else is written off.
func (u *UEClient) sendDirect(hb *hbproto.Heartbeat, fallback bool) {
	s := u.directSlot()
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		if _, err = s.Connect(); err != nil {
			u.mu.Lock()
			u.n.DialErrors++
			u.mu.Unlock()
			return
		}
		if _, err = s.Send(hb); err == nil {
			break
		}
	}
	kind := trace.KindDirectSend
	u.mu.Lock()
	switch {
	case err != nil:
		u.n.WriteErrors++
	case fallback:
		u.n.FallbackResends++
		kind = trace.KindFallback
	default:
		u.n.Direct++
		u.rec.Record(rec.EvSend, int(u.tidx), hb.Seq, hb.Origin)
	}
	u.mu.Unlock()
	if err == nil {
		u.emit(kind, hb.App, hb.Seq, time.Now())
	}
}

// Sweep applies the loss policy to every heartbeat in flight at now: one
// whose ack window has lapsed is resent directly, once, when the UE is
// relayed — keeping its first send's origin, so its expiry T_k still
// counts from generation — and is written off as timed out otherwise.
func (u *UEClient) Sweep(now time.Time) {
	var resend []*hbproto.Heartbeat
	u.mu.Lock()
	for i := range u.apps {
		p := u.table(i)
		keys, lost := p.Sweep(now, u.window(i))
		u.timedOut(lost, now)
		for _, k := range keys {
			origin, _ := p.Sent(k)
			resend = append(resend, u.heartbeat(i, k.Seq, origin))
		}
	}
	u.mu.Unlock()
	for _, hb := range resend {
		u.sendDirect(hb, true)
	}
}

// timedOut writes off heartbeats the pending tables gave up on (u.mu held).
func (u *UEClient) timedOut(keys []session.Key, now time.Time) {
	for _, k := range keys {
		u.n.Timeouts++
		u.rec.Record(rec.EvTimeout, int(u.tidx), k.Seq, now)
	}
}

// onFeedback settles the relay's feedback, onAck the server's own acks:
// a heartbeat settles once, over whichever path confirms it first.
func (u *UEClient) onFeedback(refs []hbproto.Ref, at time.Time) { u.settle(refs, at, true) }
func (u *UEClient) onAck(refs []hbproto.Ref, at time.Time)      { u.settle(refs, at, false) }

func (u *UEClient) settle(refs []hbproto.Ref, at time.Time, feedback bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, ref := range refs {
		if ref.Src != u.id {
			continue
		}
		for i := range u.apps {
			lat, ok := u.table(i).Settle(session.Key{Seq: ref.Seq}, at)
			if !ok {
				continue
			}
			u.n.Acked++
			u.latency.Record(uint64(lat / time.Microsecond))
			u.rec.Record(rec.EvAck, int(u.tidx), ref.Seq, at)
			if ref.Seq <= u.last {
				u.n.OutOfOrderAcks++
			} else {
				u.last = ref.Seq
			}
			if feedback {
				u.n.FeedbackAcks++
				u.emit(trace.KindAck, "", ref.Seq, at)
			}
			break
		}
	}
}

// heartbeat is app i's heartbeat seq, generated at origin.
func (u *UEClient) heartbeat(i int, seq uint64, origin time.Time) *hbproto.Heartbeat {
	a := &u.apps[i]
	return &hbproto.Heartbeat{
		Src: u.id, Seq: seq, App: a.Name,
		Origin: origin, Expiry: a.Expiry, Pad: a.Pad,
	}
}

// table is app i's pending table.
func (u *UEClient) table(i int) *session.Pending {
	if i == 0 {
		return &u.pending
	}
	return &u.x.more[i-1]
}

// window is app i's ack window.
func (u *UEClient) window(i int) time.Duration {
	if u.timeout > 0 {
		return u.timeout
	}
	e := u.apps[i].Expiry
	return e + e/10
}

func (u *UEClient) emit(kind trace.Kind, app string, seq uint64, at time.Time) {
	if u.x != nil {
		trace.Emit(u.x.tracer, trace.Event{AtMs: at.UnixMilli(), Device: u.id, Kind: kind, App: app, Seq: seq})
	}
}
