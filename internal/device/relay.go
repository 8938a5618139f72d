// Package device implements the two framework roles running on a
// smartphone: the Relay, which collects heartbeats from connected UEs and
// transmits them aggregated under the message scheduling algorithm, and the
// UE, which forwards its heartbeats over D2D with relay matching, feedback
// tracking and cellular fallback.
package device

import (
	"errors"
	"fmt"
	"time"

	"d2dhb/internal/cellular"
	"d2dhb/internal/d2d"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/sched"
	"d2dhb/internal/simtime"
	"d2dhb/internal/trace"
)

// RelayStats aggregates a relay's observable behaviour.
type RelayStats struct {
	// OwnHeartbeats counts the relay's own generated heartbeats.
	OwnHeartbeats int
	// Collected counts forwarded heartbeats accepted into a batch.
	Collected int
	// RejectedClosed counts heartbeats refused because the collection
	// window had closed for the period.
	RejectedClosed int
	// RejectedExpired counts heartbeats refused because they were already
	// past their deadline on arrival.
	RejectedExpired int
	// Flushes counts aggregated cellular transmissions.
	Flushes int
	// FlushesByCapacity / FlushesByDeadline / FlushesByPeriodEnd break
	// Flushes down by Algorithm 1's three triggers; a baseline's own
	// trigger (sched.ReasonPolicy) counts in none of them.
	FlushesByCapacity  int
	FlushesByDeadline  int
	FlushesByPeriodEnd int
	// ForwardedSent counts forwarded (non-own) heartbeats actually
	// transmitted to the base station.
	ForwardedSent int
	// AcksSent counts feedback acknowledgements delivered to UEs.
	AcksSent int
	// AckFailures counts feedback sends that failed (range/loss).
	AckFailures int
	// Credits is the incentive balance: one credit per forwarded heartbeat
	// delivered, mirroring the Karma-Go-style micro-payment scheme
	// (Section III-A).
	Credits int
	// SendErrors counts cellular transmissions that failed outright.
	SendErrors int
}

// RelayConfig parameterizes a relay device.
type RelayConfig struct {
	// ID is the device id.
	ID hbmsg.DeviceID
	// Profile drives the relay's own heartbeat traffic; its period is the
	// scheduling window T.
	Profile hbmsg.AppProfile
	// Capacity is M, the maximum number of collected heartbeats per
	// period.
	Capacity int
	// Policy is the scheduling window. Nil selects Algorithm 1 (Nagle)
	// with Capacity and the profile period.
	Policy *sched.Window
	// StartOffset delays the first period start.
	StartOffset time.Duration
	// Tracer receives structured events when non-nil.
	Tracer trace.Tracer
}

func (c RelayConfig) validate() error {
	if c.ID == "" {
		return errors.New("device: empty relay id")
	}
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if c.Capacity <= 0 {
		return fmt.Errorf("device: relay capacity must be positive, got %d", c.Capacity)
	}
	if c.StartOffset < 0 {
		return fmt.Errorf("device: negative start offset %v", c.StartOffset)
	}
	return nil
}

// ackKey identifies a collected heartbeat for feedback routing.
type ackKey struct {
	src hbmsg.DeviceID
	seq uint64
}

// route is a collected heartbeat's way back to its UE. At lapse its UE's
// ack window (FeedbackWindow) closes and the UE resends over cellular, so
// feedback after it would be void.
type route struct {
	via   ReturnPath
	lapse time.Duration
}

// Relay is a smartphone volunteering as a heartbeat collector.
type Relay struct {
	cfg    RelayConfig
	clock  simtime.Clock
	radio  RelayRadio
	uplink Forwarder
	policy *sched.Window

	seq uint64
	// own is the period's own heartbeat until it leaves. A flush appends it
	// to the window's batch, which keeps a slot for it, and forwards it from
	// here when nothing was collected; either way the transmitted batch is
	// never copied.
	own         [1]hbmsg.Heartbeat
	sources     map[ackKey]route
	expired     int // routes dropped at a boundary past their lapse
	flushTimer  simtime.Handle
	periodTimer simtime.Handle
	// The timers' callbacks, bound once: a method value made at every arm
	// is an allocation per collected heartbeat.
	onFlush, onPeriod func()
	stopped           bool

	stats RelayStats
}

// NewRelay assembles a relay on the sequential substrate: its D2D node on
// the live medium and its cellular modem. Start must be called to begin
// operating.
func NewRelay(s *simtime.Scheduler, node *d2d.Node, modem *cellular.Modem, cfg RelayConfig) (*Relay, error) {
	if s == nil || node == nil || modem == nil {
		return nil, errors.New("device: nil scheduler, node or modem")
	}
	r, err := NewRelayOn(simtime.SchedulerClock{S: s}, liveNode{node}, Cellular{modem}, cfg)
	if err != nil {
		return nil, err
	}
	node.OnReceive(func(hb hbmsg.Heartbeat, link *d2d.Link) { r.Receive(hb, link) })
	return r, nil
}

// NewRelayOn assembles a relay on an arbitrary substrate. The substrate
// delivers forwarded heartbeats by calling Receive.
func NewRelayOn(clock simtime.Clock, radio RelayRadio, uplink Forwarder, cfg RelayConfig) (*Relay, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	policy := cfg.Policy
	if policy == nil {
		var err error
		policy, err = sched.NewNagle(cfg.Capacity, cfg.Profile.Period)
		if err != nil {
			return nil, err
		}
	}
	r := &Relay{
		cfg:     cfg,
		clock:   clock,
		radio:   radio,
		uplink:  uplink,
		policy:  policy,
		sources: make(map[ackKey]route),
	}
	r.onFlush, r.onPeriod = r.flush, r.startPeriod
	return r, nil
}

// Stats returns a snapshot of the relay's counters.
func (r *Relay) Stats() RelayStats { return r.stats }

// Policy exposes the active scheduling window.
func (r *Relay) Policy() *sched.Window { return r.policy }

// Awaiting reports how many collected heartbeats still hold a feedback
// route: waiting in the window, or forwarded and not yet confirmed. A
// route ends in one of three ways: it is confirmed, it is forgotten with a
// flush that lost its heartbeat, or it lapses at the first period boundary
// past its UE's ack window (FeedbackWindow from the heartbeat's origin),
// since that UE has resent over cellular by then.
func (r *Relay) Awaiting() int { return len(r.sources) }

// RoutesExpired counts the routes dropped because their UE's ack window
// closed before a confirmation came.
func (r *Relay) RoutesExpired() int { return r.expired }

// Start schedules the first heartbeat period.
func (r *Relay) Start() error {
	t, err := r.clock.After(r.cfg.StartOffset, r.onPeriod)
	if err != nil {
		return fmt.Errorf("device: start relay %s: %w", r.cfg.ID, err)
	}
	r.periodTimer = t
	return nil
}

// Stop halts the relay immediately: pending collected heartbeats are lost
// and no feedback is sent — the failure the UE-side fallback guards against
// ("the relay has run out of its battery or lost connection", Section
// III-A).
func (r *Relay) Stop() {
	r.stopped = true
	r.emit(trace.Event{Kind: trace.KindStop})
	r.clock.Stop(r.flushTimer)
	r.flushTimer = nil
	r.clock.Stop(r.periodTimer)
	r.periodTimer = nil
	r.radio.Shutdown()
}

// startPeriod opens a new collection window, drops the feedback routes
// whose ack window has closed, generates the relay's own heartbeat (to be
// delayed and sent with the batch), and arms the flush timer at the
// scheduling deadline.
func (r *Relay) startPeriod() {
	if r.stopped {
		return
	}
	// Drain the previous window first: when the period timer and the flush
	// timer land on the same instant, the period timer fires first and
	// must not discard the pending batch.
	r.flush()
	now := r.clock.Now()
	for k, rt := range r.sources {
		if rt.lapse <= now {
			delete(r.sources, k)
			r.expired++
		}
	}
	r.seq++
	r.own[0] = r.cfg.Profile.Heartbeat(r.cfg.ID, r.seq, now)
	r.stats.OwnHeartbeats++
	r.policy.StartPeriod(now)
	r.advertise()

	var err error
	r.periodTimer, err = r.clock.After(r.cfg.Profile.Period, r.onPeriod)
	if err != nil {
		r.stats.SendErrors++
	}
	r.rearmFlush()
}

// Advertised returns what the relay's beacons currently say: its remaining
// collection capacity and its group-owner intent, which decays
// proportionally with load (Section IV-C).
func (r *Relay) Advertised() (free, intent int) {
	if r.policy.Accepting() {
		free = r.cfg.Capacity - r.policy.Pending()
	}
	return free, d2d.IntentForLoad(r.cfg.Capacity-free, r.cfg.Capacity)
}

func (r *Relay) advertise() { r.radio.Advertise(r.Advertised()) }

// Receive handles one forwarded heartbeat from a UE; via is the path its
// feedback will take.
func (r *Relay) Receive(hb hbmsg.Heartbeat, via ReturnPath) {
	if r.stopped {
		return
	}
	now := r.clock.Now()
	flushNow, err := r.policy.Collect(hb, now)
	switch {
	case errors.Is(err, sched.ErrClosed):
		r.stats.RejectedClosed++
		r.traceHB(trace.KindReject, &hb, "closed")
		return
	case errors.Is(err, sched.ErrExpired):
		r.stats.RejectedExpired++
		r.traceHB(trace.KindReject, &hb, "expired")
		return
	case err != nil:
		r.stats.SendErrors++
		return
	}
	r.stats.Collected++
	r.traceHB(trace.KindCollect, &hb, "")
	r.sources[ackKey{src: hb.Src, seq: hb.Seq}] = route{via: via, lapse: hb.Origin + FeedbackWindow(0, hb.Expiry)}
	r.advertise()
	if flushNow {
		r.flush()
		return
	}
	r.rearmFlush()
}

// traceHB emits the trace event of a heartbeat Receive handled: its
// collection, or its rejection for reason. It returns at once without a
// tracer, and it is never inlined, so the event is built in no frame of
// an untraced collect: on the live relay that path runs on a UE reader,
// which keeps whatever stack the path grows it to (DESIGN.md, "The
// goroutine stack budget").
//
//go:noinline
func (r *Relay) traceHB(kind trace.Kind, hb *hbmsg.Heartbeat, reason string) {
	if r.cfg.Tracer == nil {
		return
	}
	r.emit(trace.Event{Kind: kind, App: hb.App, Seq: hb.Seq, Peer: string(hb.Src), Reason: reason})
}

// rearmFlush (re)schedules the flush at the policy's current deadline.
func (r *Relay) rearmFlush() {
	r.clock.Stop(r.flushTimer)
	r.flushTimer = nil
	at, ok := r.policy.Deadline()
	if !ok {
		return
	}
	t, err := r.clock.At(at, r.onFlush)
	if err != nil {
		// Deadline already passed (clock raced the arm): flush now.
		r.flush()
		return
	}
	r.flushTimer = t
}

// flush transmits the batch — collected heartbeats plus the relay's own —
// in a single cellular connection, then acknowledges each UE if the uplink
// already has the server's answer.
func (r *Relay) flush() {
	if r.stopped {
		return
	}
	// The handle must be dropped as soon as it is cancelled (or has fired,
	// when flush runs as the timer's own callback): a dead handle may alias
	// the next event armed (see simtime.Handle).
	r.clock.Stop(r.flushTimer)
	r.flushTimer = nil
	now := r.clock.Now()
	batch := r.policy.Flush(now)
	full := batch
	if r.own[0].Src != "" {
		full = r.own[:]
		if len(batch) > 0 {
			full = append(batch, r.own[0])
		}
	}
	if len(full) == 0 {
		return
	}
	lost, acked, err := r.uplink.Forward(full)
	r.own[0] = hbmsg.Heartbeat{}
	if err != nil {
		r.stats.SendErrors++
		for _, hb := range batch {
			r.forget(hb)
		}
		return
	}
	forwarded := len(batch)
	for _, i := range lost {
		if i < len(batch) { // not the own heartbeat
			r.forget(batch[i])
			forwarded--
		}
	}
	r.stats.Flushes++
	reason := r.policy.LastFlushReason()
	r.emit(trace.Event{Kind: trace.KindFlush, N: len(full) - len(lost), Reason: reason.String()})
	switch reason {
	case sched.ReasonCapacity:
		r.stats.FlushesByCapacity++
	case sched.ReasonDeadline:
		r.stats.FlushesByDeadline++
	case sched.ReasonPeriodEnd:
		r.stats.FlushesByPeriodEnd++
	}
	r.stats.ForwardedSent += forwarded
	r.stats.Credits += forwarded
	if acked {
		// In batch order, so the simulation's random stream stays
		// deterministic.
		for _, hb := range batch {
			r.Confirm(hb.Src, hb.Seq)
		}
	}
	r.advertise()
}

// forget drops the feedback route of a heartbeat that never left: no
// acknowledgement can come for it, and its UE falls back on its own.
func (r *Relay) forget(hb hbmsg.Heartbeat) { delete(r.sources, ackKey{src: hb.Src, seq: hb.Seq}) }

// emit stamps and forwards one trace event.
func (r *Relay) emit(ev trace.Event) {
	ev.At = r.clock.Now()
	ev.Device = string(r.cfg.ID)
	trace.Emit(r.cfg.Tracer, ev)
}

// Confirm feeds back to the UE that forwarded heartbeat (src, seq) once the
// server holds it. A relay on a modem confirms its own flushes; any other
// substrate calls Confirm per acknowledgement it receives. An unknown key —
// the relay's own heartbeat, or one already confirmed — is ignored.
func (r *Relay) Confirm(src hbmsg.DeviceID, seq uint64) {
	key := ackKey{src: src, seq: seq}
	rt, ok := r.sources[key]
	if !ok {
		return
	}
	delete(r.sources, key)
	if err := r.radio.Ack(rt.via, d2d.AckRef{Src: src, Seq: seq}); err != nil {
		r.stats.AckFailures++
		return
	}
	r.stats.AcksSent++
}
