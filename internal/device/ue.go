package device

import (
	"errors"
	"fmt"
	"time"

	"d2dhb/internal/cellular"
	"d2dhb/internal/d2d"
	"d2dhb/internal/energy"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/inflight"
	"d2dhb/internal/matching"
	"d2dhb/internal/simtime"
	"d2dhb/internal/trace"
)

// UEStats aggregates a UE's observable behaviour.
type UEStats struct {
	// Generated counts heartbeats produced by the app.
	Generated int
	// SentViaD2D counts heartbeats successfully handed to a relay.
	SentViaD2D int
	// D2DSendFailures counts forwarding attempts that failed at the link.
	D2DSendFailures int
	// DirectCellular counts heartbeats sent straight over cellular because
	// no relay was matched (or the link had just failed).
	DirectCellular int
	// RelayBusy counts heartbeats sent directly because the connected
	// relay advertised a closed or full collection window — forwarding
	// would only be rejected and expire waiting for the next period.
	RelayBusy int
	// FallbackResends counts duplicate cellular sends after a feedback
	// timeout.
	FallbackResends int
	// AcksReceived counts feedback acknowledgements.
	AcksReceived int
	// Scans counts D2D discovery operations.
	Scans int
	// ScansSkipped counts heartbeats where discovery was suppressed by
	// the failure backoff.
	ScansSkipped int
	// Matches counts successful relay matches (connections established).
	Matches int
	// MatchFailures counts scans that yielded no usable relay.
	MatchFailures int
	// SendErrors counts cellular sends that failed outright.
	SendErrors int
}

// UERules are the settings every UE of a run shares. A run builds one
// value and each of its UEs points at it, so a device keeps by value only
// what differs per device.
type UERules struct {
	// Match configures relay selection.
	Match matching.Config
	// FeedbackTimeout is how long the UE waits for a relay
	// acknowledgement before resending over cellular. Zero selects
	// FeedbackWindow's default for each heartbeat's expiry.
	FeedbackTimeout time.Duration
	// DisableD2D forces the original-system behaviour (every heartbeat
	// direct over cellular); used for baselines.
	DisableD2D bool
}

// UEConfig parameterizes a UE device.
type UEConfig struct {
	// ID is the device id.
	ID hbmsg.DeviceID
	// Apps are the device's heartbeat-producing apps, primary first, each
	// with its own heartbeat loop (real phones run several IM apps at
	// once, the situation Table I describes). All apps share the device's
	// relay link, feedback table and fallback path; each heartbeat waits on
	// its own app's FeedbackWindow. The UE only reads the slice, so UEs
	// running the same apps may share one.
	Apps []hbmsg.AppProfile
	// Rules are the run's shared UE settings; required.
	Rules *UERules
	// StartOffset delays the first heartbeat; staggering offsets across
	// UEs mimics unsynchronized apps.
	StartOffset time.Duration
	// Tracer receives structured events when non-nil.
	Tracer trace.Tracer
}

// FeedbackGrace is added to the message expiry for the default feedback
// timeout.
const FeedbackGrace = 5 * time.Second

// FeedbackWindow is the one ack window of a UE, simulated or live: how
// long a heartbeat with the given expiry waits for its acknowledgement
// before it is resent over cellular. A positive timeout is the configured
// window. Otherwise it is the expiry plus FeedbackGrace, since the relay
// may legitimately delay the batch until just before the earliest
// deadline; the grace is capped at a tenth of the expiry, so a sped-up
// app's window scales with its expiry.
func FeedbackWindow(timeout, expiry time.Duration) time.Duration {
	if timeout > 0 {
		return timeout
	}
	return expiry + min(FeedbackGrace, expiry/10)
}

func (c UEConfig) validate() error {
	if c.ID == "" {
		return errors.New("device: empty ue id")
	}
	if len(c.Apps) == 0 || c.Rules == nil {
		return fmt.Errorf("device: ue %s needs apps and rules", c.ID)
	}
	for _, p := range c.Apps {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	if err := c.Rules.Match.Validate(); err != nil {
		return err
	}
	if c.Rules.FeedbackTimeout < 0 {
		return fmt.Errorf("device: negative feedback timeout %v", c.Rules.FeedbackTimeout)
	}
	if c.StartOffset < 0 {
		return fmt.Errorf("device: negative start offset %v", c.StartOffset)
	}
	return nil
}

// UE is a smartphone forwarding its heartbeats through nearby relays.
type UE struct {
	cfg    UEConfig
	clock  simtime.Clock
	radio  Radio
	uplink Uplink

	seq     uint64
	link    Link
	pending inflight.Pending   // forwarded heartbeats awaiting feedback, keyed by u.key
	one     [1]hbmsg.Heartbeat // the batch of a direct send; Uplink.Send does not retain it
	// One timer per app profile's heartbeat loop, then the lapse timer, at
	// the earliest instant a window in pending closes; fires holds the
	// callback bound to each, made once at Start.
	timers  []simtime.Handle
	fires   []func()
	lapseAt time.Duration // the lapse timer's instant while it is armed

	// Scan backoff: discovery is itself expensive (Table III) for the UE
	// and for every responding relay, so after a failed match the UE
	// skips scanning for a geometrically growing number of heartbeats.
	// Both stay under maxScanBackoff; int32 packs them with stopped.
	backoff   int32
	scanSkips int32
	stopped   bool

	stats UEStats
}

// maxScanBackoff caps the discovery backoff at 8 heartbeat periods.
const maxScanBackoff = 8

// NewUE assembles a UE on the sequential substrate: its D2D node on the
// live medium and its cellular modem. Start must be called to begin the
// heartbeat loop.
func NewUE(s *simtime.Scheduler, node *d2d.Node, modem *cellular.Modem, cfg UEConfig) (*UE, error) {
	if s == nil || node == nil || modem == nil {
		return nil, errors.New("device: nil scheduler, node or modem")
	}
	u, err := NewUEOn(simtime.SchedulerClock{S: s}, liveNode{node}, modem, cfg)
	if err != nil {
		return nil, err
	}
	node.OnAck(func(ref d2d.AckRef, _ *d2d.Link) { u.OnAck(ref) })
	return u, nil
}

// NewUEOn assembles a UE on an arbitrary substrate. The substrate delivers
// feedback by calling OnAck.
func NewUEOn(clock simtime.Clock, radio Radio, uplink Uplink, cfg UEConfig) (*UE, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &UE{cfg: cfg, clock: clock, radio: radio, uplink: uplink}, nil
}

// ID returns the device id.
func (u *UE) ID() hbmsg.DeviceID { return u.cfg.ID }

// Stats returns a snapshot of the UE's counters.
func (u *UE) Stats() UEStats { return u.stats }

// Connected reports whether the UE currently holds an open relay link.
func (u *UE) Connected() bool { return u.link != nil && u.link.Open() }

// Start schedules the first heartbeat of every app. App i starts i×3 s
// after StartOffset, so the apps' first heartbeats do not collide.
func (u *UE) Start() error {
	n := len(u.cfg.Apps)
	u.timers = make([]simtime.Handle, n+1)
	u.fires = make([]func(), n+1)
	u.fires[n] = u.onLapse
	for i := range n {
		u.fires[i] = func() { u.heartbeat(i) }
		offset := u.cfg.StartOffset + time.Duration(i)*3*time.Second
		t, err := u.clock.After(offset, u.fires[i])
		if err != nil {
			return fmt.Errorf("device: start ue %s: %w", u.cfg.ID, err)
		}
		u.timers[i] = t
	}
	return nil
}

// Stop halts the heartbeat loops and the lapse timer and forgets the
// heartbeats awaiting feedback. The handles are dropped as they are
// cancelled: a stopped handle is dead (see simtime.Handle), so keeping it
// could alias events armed by other devices.
func (u *UE) Stop() {
	u.stopped = true
	for i, t := range u.timers {
		u.clock.Stop(t)
		u.timers[i] = nil
	}
	u.pending.Drain()
	if u.link != nil {
		u.link.Close()
		u.link = nil
	}
}

// heartbeat generates and dispatches one heartbeat of app i, then
// schedules the next.
func (u *UE) heartbeat(i int) {
	if u.stopped {
		return
	}
	profile := &u.cfg.Apps[i]
	now := u.clock.Now()
	u.seq++
	hb := profile.Heartbeat(u.cfg.ID, u.seq, now)
	u.stats.Generated++
	u.emit(trace.Event{Kind: trace.KindGenerated, App: hb.App, Seq: hb.Seq})

	var err error
	u.timers[i], err = u.clock.After(profile.Period, u.fires[i])
	if err != nil {
		u.stats.SendErrors++
	}

	if u.cfg.Rules.DisableD2D {
		u.sendDirect(hb)
		return
	}
	// Proactive release: once mobility has carried the UE well beyond the
	// prejudgment distance, the link is deep in the loss zone and every
	// further transfer risks failure — the same reasoning that rejects far
	// relays at match time (Section III-C) applies to keeping them. The
	// 25 % hysteresis margin keeps boundary cases (matched on a noisy
	// RSSI estimate just inside the bound) from flapping.
	if u.Connected() && u.cfg.Rules.Match.Prejudgment &&
		u.link.Distance() > u.cfg.Rules.Match.MaxDistance*1.25 {
		u.link.Close()
		u.link = nil
	}
	if !u.Connected() {
		if u.scanSkips > 0 {
			u.scanSkips--
			u.stats.ScansSkipped++
		} else {
			u.tryMatch()
		}
	}
	if !u.Connected() {
		u.sendDirect(hb)
		return
	}
	// The group owner's beacons advertise its remaining collection
	// capacity; a closed or full window means the forward would be
	// rejected and the heartbeat would expire waiting for feedback.
	if u.link.PeerFree() <= 0 {
		u.stats.RelayBusy++
		u.emit(trace.Event{Kind: trace.KindRelayBusy, App: hb.App, Seq: hb.Seq,
			Peer: string(u.link.PeerID())})
		// Hand over to another relay if the scan budget allows — Select
		// skips zero-capacity relays, so a successful match is a fresh
		// collector. The old link stays open so feedback for messages it
		// already collected still arrives.
		switched := false
		if u.scanSkips == 0 {
			prev := u.link
			u.tryMatch()
			switched = u.Connected() && u.link != prev && u.link.PeerFree() > 0
		}
		if !switched {
			u.sendDirect(hb)
			return
		}
	}
	// Track the heartbeat before transmitting: when this very send fills
	// the batch, the relay flushes and acknowledges synchronously, and the
	// ack must find it in flight.
	k := u.key(i, hb.Seq)
	u.pending.Track(k, instant(now), true)
	u.rearm()
	if err := u.link.Send(hb); err != nil {
		u.pending.Settle(k, instant(now))
		u.rearm()
		u.stats.D2DSendFailures++
		u.emit(trace.Event{Kind: trace.KindD2DFail, App: hb.App, Seq: hb.Seq, Reason: err.Error()})
		// A lost transfer leaves the link up for the next heartbeat to
		// retry; a broken one is dropped.
		if !u.link.Open() {
			u.link = nil
		}
		u.sendDirect(hb)
		return
	}
	u.stats.SentViaD2D++
	u.emit(trace.Event{Kind: trace.KindD2DSend, App: hb.App, Seq: hb.Seq})
}

// emit stamps and forwards one trace event.
func (u *UE) emit(ev trace.Event) {
	ev.At = u.clock.Now()
	ev.Device = string(u.cfg.ID)
	trace.Emit(u.cfg.Tracer, ev)
}

// tryMatch scans for relays and connects to the best candidate, doubling
// the scan backoff on failure.
func (u *UE) tryMatch() {
	u.stats.Scans++
	sel, ok := matching.Select(u.radio.Scan(), u.cfg.Rules.Match)
	if !ok {
		u.matchFailed()
		return
	}
	link, err := u.radio.Connect(sel.ID)
	if err != nil {
		u.matchFailed()
		return
	}
	u.stats.Matches++
	u.link = link
	u.backoff = 0
	u.emit(trace.Event{Kind: trace.KindMatch, Peer: string(sel.ID)})
}

func (u *UE) matchFailed() {
	u.stats.MatchFailures++
	u.emit(trace.Event{Kind: trace.KindMatchFail})
	u.backoff *= 2
	if u.backoff == 0 {
		u.backoff = 1
	}
	if u.backoff > maxScanBackoff {
		u.backoff = maxScanBackoff
	}
	u.scanSkips = u.backoff
}

// sendDirect transmits a heartbeat straight over cellular (the original
// system's path).
func (u *UE) sendDirect(hb hbmsg.Heartbeat) {
	u.one[0] = hb
	if err := u.uplink.Send(u.one[:], energy.PhaseCellular); err != nil {
		u.stats.SendErrors++
		return
	}
	u.stats.DirectCellular++
	u.emit(trace.Event{Kind: trace.KindDirectSend, App: hb.App, Seq: hb.Seq})
}

// instant is a simulated instant as the in-flight table takes it.
func instant(d time.Duration) time.Time { return time.Unix(0, int64(d)) }

// key is heartbeat seq of app i in the in-flight table: two slots per app,
// by seq parity, so that when a one-app UE's ack comes after its next
// heartbeat both stay inline, and the table opens no overflow map.
func (u *UE) key(i int, seq uint64) inflight.Key {
	return inflight.Key{Slot: i + len(u.cfg.Apps)*int(seq&1), Seq: seq}
}

// window is the ack window of the heartbeats in slot.
func (u *UE) window(slot int) time.Duration {
	return FeedbackWindow(u.cfg.Rules.FeedbackTimeout, u.cfg.Apps[slot%len(u.cfg.Apps)].Expiry())
}

// rearm keeps the lapse timer on the table's earliest lapse after a
// change to it: the timer stops when the table empties and is armed again
// only when the earliest lapse moved, so no event fires for a window an ack
// already closed.
func (u *UE) rearm() {
	n := len(u.timers) - 1
	next, ok := u.pending.Lapse(u.window)
	at := time.Duration(next.UnixNano())
	if ok && at == u.lapseAt && u.timers[n] != nil {
		return
	}
	u.clock.Stop(u.timers[n])
	u.timers[n] = nil
	if !ok {
		return
	}
	t, err := u.clock.At(at, u.fires[n])
	if err != nil {
		u.stats.SendErrors++
		return
	}
	u.timers[n], u.lapseAt = t, at
}

// onLapse fires at the earliest lapse: each forwarded heartbeat whose
// window closed unacknowledged is resent, as the UE "will send the
// heartbeat messages via cellular network" itself (Section III-A), paying
// the duplicate-transmission penalty the paper lists under negative
// impacts. It keeps its first send's origin and settles once it has left.
func (u *UE) onLapse() {
	u.timers[len(u.timers)-1] = nil // it is what is running
	now := u.clock.Now()
	var buf [2]inflight.Key
	resend, _ := u.pending.Sweep(instant(now), u.window, buf[:0], nil)
	for _, k := range resend {
		sent, _ := u.pending.Sent(k)
		u.one[0] = u.cfg.Apps[k.Slot%len(u.cfg.Apps)].Heartbeat(u.cfg.ID, k.Seq, time.Duration(sent.UnixNano()))
		u.stats.FallbackResends++
		u.emit(trace.Event{Kind: trace.KindFallback, App: u.one[0].App, Seq: k.Seq})
		if err := u.uplink.Send(u.one[:], energy.PhaseFallback); err != nil {
			u.stats.SendErrors++
		}
		u.pending.Settle(k, instant(now))
		// The relay evidently failed us; drop the link so the next
		// heartbeat rematches.
		if u.link != nil {
			u.link.Close()
			u.link = nil
		}
	}
	u.rearm()
}

// OnAck handles one feedback acknowledgement from a relay.
func (u *UE) OnAck(ref d2d.AckRef) {
	if ref.Src != u.cfg.ID {
		return
	}
	for i := range u.cfg.Apps { // seqs run across apps: one slot has it
		if _, ok := u.pending.Settle(u.key(i, ref.Seq), instant(u.clock.Now())); ok {
			u.rearm()
			u.stats.AcksReceived++
			u.emit(trace.Event{Kind: trace.KindAck, App: u.cfg.Apps[i].Name, Seq: ref.Seq})
			return
		}
	}
}
