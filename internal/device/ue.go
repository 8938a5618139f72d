package device

import (
	"errors"
	"fmt"
	"time"

	"d2dhb/internal/cellular"
	"d2dhb/internal/d2d"
	"d2dhb/internal/energy"
	"d2dhb/internal/hbmsg"
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

// UEConfig parameterizes a UE device.
type UEConfig struct {
	// ID is the device id.
	ID hbmsg.DeviceID
	// Profile drives the UE's heartbeat traffic.
	Profile hbmsg.AppProfile
	// ExtraProfiles are additional apps running on the same device, each
	// with its own heartbeat loop (real phones run several IM apps at
	// once, the situation Table I describes). All apps share the device's
	// relay link, feedback tracking and fallback path.
	ExtraProfiles []hbmsg.AppProfile
	// Match configures relay selection.
	Match matching.Config
	// FeedbackTimeout is how long the UE waits for a relay
	// acknowledgement before resending over cellular. Zero selects
	// FeedbackWindow's default for each heartbeat's expiry.
	FeedbackTimeout time.Duration
	// StartOffset delays the first heartbeat; staggering offsets across
	// UEs mimics unsynchronized apps.
	StartOffset time.Duration
	// DisableD2D forces the original-system behaviour (every heartbeat
	// direct over cellular); used for baselines.
	DisableD2D bool
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
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	for _, p := range c.ExtraProfiles {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	if err := c.Match.Validate(); err != nil {
		return err
	}
	if c.FeedbackTimeout < 0 {
		return fmt.Errorf("device: negative feedback timeout %v", c.FeedbackTimeout)
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

	seq      uint64
	link     Link
	pending  []*pendingSend     // awaiting feedback, found by p.hb.Seq; one or two at a time
	spare    []*pendingSend     // settled entries, kept with their timer callbacks for reuse
	one      [1]hbmsg.Heartbeat // the batch of a direct send; Uplink.Send does not retain it
	beats    []func()           // one heartbeat loop body per app profile
	hbTimers []simtime.Handle
	stopped  bool

	// Scan backoff: discovery is itself expensive (Table III) for the UE
	// and for every responding relay, so after a failed match the UE
	// skips scanning for a geometrically growing number of heartbeats.
	backoff   int
	scanSkips int

	stats UEStats
}

// maxScanBackoff caps the discovery backoff at 8 heartbeat periods.
const maxScanBackoff = 8

// pendingSend tracks a forwarded heartbeat awaiting feedback. A UE has one
// or two in flight at a time, so settled entries are recycled together with
// the timer callback bound to them.
type pendingSend struct {
	hb      hbmsg.Heartbeat
	timer   simtime.Handle
	timeout func() // u.onFeedbackTimeout for whatever hb this entry carries
}

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
	node.OnAck(func(refs []d2d.AckRef, _ *d2d.Link) {
		for _, ref := range refs {
			u.OnAck(ref)
		}
	})
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

// Start schedules the first heartbeat of every app profile. Extra profiles
// are staggered a few seconds after the primary so their first heartbeats
// do not collide.
func (u *UE) Start() error {
	n := 1 + len(u.cfg.ExtraProfiles)
	u.beats = make([]func(), n)
	u.hbTimers = make([]simtime.Handle, n)
	for i := range u.beats {
		i := i
		u.beats[i] = func() { u.heartbeat(i) }
		offset := u.cfg.StartOffset + time.Duration(i)*3*time.Second
		t, err := u.clock.After(offset, u.beats[i])
		if err != nil {
			return fmt.Errorf("device: start ue %s: %w", u.cfg.ID, err)
		}
		u.hbTimers[i] = t
	}
	return nil
}

// profile returns app profile i: the primary, then the extras.
func (u *UE) profile(i int) *hbmsg.AppProfile {
	if i == 0 {
		return &u.cfg.Profile
	}
	return &u.cfg.ExtraProfiles[i-1]
}

// Stop halts the heartbeat loops and cancels pending feedback timers. The
// handles are dropped as they are cancelled: a stopped handle is dead (see
// simtime.Handle), so keeping it could alias events armed by other devices.
func (u *UE) Stop() {
	u.stopped = true
	for i, t := range u.hbTimers {
		u.clock.Stop(t)
		u.hbTimers[i] = nil
	}
	for len(u.pending) > 0 {
		u.settle(len(u.pending) - 1)
	}
	if u.link != nil {
		u.link.Close()
		u.link = nil
	}
}

// heartbeat generates and dispatches one heartbeat for profile slot i,
// then schedules the next.
func (u *UE) heartbeat(i int) {
	if u.stopped {
		return
	}
	profile := u.profile(i)
	now := u.clock.Now()
	u.seq++
	hb := profile.Heartbeat(u.cfg.ID, u.seq, now)
	u.stats.Generated++
	u.emit(trace.Event{Kind: trace.KindGenerated, App: hb.App, Seq: hb.Seq})

	var err error
	u.hbTimers[i], err = u.clock.After(profile.Period, u.beats[i])
	if err != nil {
		u.stats.SendErrors++
	}

	if u.cfg.DisableD2D {
		u.sendDirect(hb)
		return
	}
	// Proactive release: once mobility has carried the UE well beyond the
	// prejudgment distance, the link is deep in the loss zone and every
	// further transfer risks failure — the same reasoning that rejects far
	// relays at match time (Section III-C) applies to keeping them. The
	// 25 % hysteresis margin keeps boundary cases (matched on a noisy
	// RSSI estimate just inside the bound) from flapping.
	if u.Connected() && u.cfg.Match.Prejudgment &&
		u.link.Distance() > u.cfg.Match.MaxDistance*1.25 {
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
	// Arm the feedback timer before transmitting: when this very send
	// fills the batch, the relay flushes and acknowledges synchronously,
	// and the ack must find the pending entry.
	u.armFeedback(hb)
	if err := u.link.Send(hb); err != nil {
		u.cancelFeedback(hb.Seq)
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
	ev.AtMs = trace.At(u.clock.Now())
	ev.Device = string(u.cfg.ID)
	trace.Emit(u.cfg.Tracer, ev)
}

// tryMatch scans for relays and connects to the best candidate, doubling
// the scan backoff on failure.
func (u *UE) tryMatch() {
	u.stats.Scans++
	sel, ok := matching.Select(u.radio.Scan(), u.cfg.Match)
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

// armFeedback starts the ack timer for a forwarded heartbeat.
func (u *UE) armFeedback(hb hbmsg.Heartbeat) {
	var p *pendingSend
	if n := len(u.spare); n > 0 {
		p, u.spare = u.spare[n-1], u.spare[:n-1]
	} else {
		p = &pendingSend{}
		p.timeout = func() { u.onFeedbackTimeout(p.hb.Seq) }
	}
	p.hb = hb
	t, err := u.clock.After(FeedbackWindow(u.cfg.FeedbackTimeout, hb.Expiry), p.timeout)
	if err != nil {
		u.stats.SendErrors++
		u.spare = append(u.spare, p)
		return
	}
	p.timer = t
	u.pending = append(u.pending, p)
}

// inFlight returns the index in u.pending of the entry awaiting feedback
// for seq, or -1.
func (u *UE) inFlight(seq uint64) int {
	for i, p := range u.pending {
		if p.hb.Seq == seq {
			return i
		}
	}
	return -1
}

// settle takes pending entry i out of the table: its timer, if it still
// has one, is cancelled, and the entry goes back to the spares, where the
// next armFeedback overwrites its heartbeat.
func (u *UE) settle(i int) {
	p := u.pending[i]
	u.clock.Stop(p.timer)
	p.timer = nil
	last := len(u.pending) - 1
	u.pending[i] = u.pending[last]
	u.pending[last] = nil
	u.pending = u.pending[:last]
	u.spare = append(u.spare, p)
}

// cancelFeedback drops a pending entry after a failed send.
func (u *UE) cancelFeedback(seq uint64) {
	if i := u.inFlight(seq); i >= 0 {
		u.settle(i)
	}
}

// onFeedbackTimeout fires when a forwarded heartbeat was never
// acknowledged: the UE "will send the heartbeat messages via cellular
// network" itself (Section III-A), paying the duplicate-transmission
// penalty the paper lists under negative impacts.
func (u *UE) onFeedbackTimeout(seq uint64) {
	i := u.inFlight(seq)
	if i < 0 || u.stopped {
		return
	}
	p := u.pending[i]
	u.one[0] = p.hb
	p.timer = nil // it is what is running
	u.settle(i)
	u.stats.FallbackResends++
	u.emit(trace.Event{Kind: trace.KindFallback, App: u.one[0].App, Seq: seq})
	if err := u.uplink.Send(u.one[:], energy.PhaseFallback); err != nil {
		u.stats.SendErrors++
	}
	// The relay evidently failed us; drop the link so the next heartbeat
	// rematches.
	if u.link != nil {
		u.link.Close()
		u.link = nil
	}
}

// OnAck handles one feedback acknowledgement from a relay.
func (u *UE) OnAck(ref d2d.AckRef) {
	i := u.inFlight(ref.Seq)
	if i < 0 || ref.Src != u.cfg.ID {
		return
	}
	app := u.pending[i].hb.App
	u.settle(i)
	u.stats.AcksReceived++
	u.emit(trace.Event{Kind: trace.KindAck, App: app, Seq: ref.Seq})
}
