// Package sched implements the paper's core contribution: the relay-side
// message scheduling algorithm (Algorithm 1), a Nagle-derived policy that
// delays the relay's own heartbeat and sends it together with the heartbeats
// forwarded by UEs in a single cellular connection, subject to three
// constraints: the collection capacity M, each forwarded message's
// expiration time T_k, and the relay's own heartbeat period T.
//
// One type states it: a Window is one relay period's collection window.
// The ablation baselines (immediate send, fixed delay, period-aligned) are
// the same window with one bound dropped or swapped, so a Window's Kind
// decides only three rules: whether a collect flushes at once, what the
// deadline is, and whether a flush closes the window. The rejects, the
// instruments, the batch buffers and the flush reason are the same for all
// four kinds.
package sched

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"d2dhb/internal/hbmsg"
)

// Sentinel errors returned by Collect.
var (
	// ErrClosed reports a collect attempt after the batch for the current
	// period was flushed ("once the heartbeat sent, the relay won't collect
	// forwarded heartbeat messages from UE(s) until the next period").
	ErrClosed = errors.New("sched: collection closed until next period")
	// ErrExpired reports a heartbeat that was already past its deadline on
	// arrival; scheduling it would waste a transmission.
	ErrExpired = errors.New("sched: heartbeat expired on arrival")
)

// Kind identifies a scheduling policy.
type Kind int

// Scheduling policies.
const (
	KindNagle         Kind = iota + 1 // Algorithm 1
	KindImmediate                     // flush every message at once (no batching)
	KindFixedDelay                    // flush a fixed delay after the first message
	KindPeriodAligned                 // always wait for the relay's period end
)

var kindNames = [...]string{
	KindNagle:         "nagle",
	KindImmediate:     "immediate",
	KindFixedDelay:    "fixed-delay",
	KindPeriodAligned: "period-aligned",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k >= KindNagle && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind resolves a policy by its String name, ignoring case. The empty
// name is Algorithm 1, the default policy.
func ParseKind(name string) (Kind, error) {
	if name == "" {
		return KindNagle, nil
	}
	for k := KindNagle; int(k) < len(kindNames); k++ {
		if strings.EqualFold(name, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown policy %q", name)
}

// FlushReason explains why a batch was released.
type FlushReason int

// Flush reasons.
const (
	ReasonCapacity  FlushReason = iota + 1 // k reached M
	ReasonDeadline                         // a collected message's T_k forced the send
	ReasonPeriodEnd                        // the relay's own period T elapsed
	ReasonPolicy                           // a baseline's own rule (immediate send, fixed delay)
)

// String implements fmt.Stringer.
func (r FlushReason) String() string {
	switch r {
	case ReasonCapacity:
		return "capacity"
	case ReasonDeadline:
		return "deadline"
	case ReasonPeriodEnd:
		return "period-end"
	case ReasonPolicy:
		return "policy"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// Window is the relay's collection window under one scheduling policy. The
// relay drives it: StartPeriod at each of its own heartbeat periods,
// Collect on every forwarded heartbeat, and Flush when Collect demands it
// or the Deadline arrives. It has no timers of its own, so the
// discrete-event simulator and the real TCP relay agent drive the same
// value.
//
// Under Algorithm 1 (KindNagle) it buffers forwarded heartbeats while
//
//	k < M  &&  t − t_k < T_k (for every collected message)  &&  t < T
//
// and flushes as soon as any bound is reached, sending everything in one
// cellular connection together with the relay's own heartbeat. The
// baselines drop or swap a bound:
//   - KindImmediate flushes every message on arrival and never closes, the
//     naive relay the paper warns "would consume more energy than the
//     original system and lose the signaling-saving feature" (Section
//     III-C);
//   - KindFixedDelay flushes a fixed delay after the first message,
//     ignoring expiries — with tight T_k it silently lets messages die;
//   - KindPeriodAligned always waits for the period end, ignoring both
//     capacity and expiries.
type Window struct {
	ins      *Instruments
	kind     Kind
	capacity int           // M under Algorithm 1; 0 (unbounded) otherwise
	delay    time.Duration // the fixed delay; 0 otherwise
	period   time.Duration

	end     time.Duration // the current period's end: the hard bound t < T
	pending []hbmsg.Heartbeat
	// deadline is the instant the pending batch must leave by. It starts at
	// the period end and only falls as heartbeats are collected, until the
	// flush that empties the window, so Deadline scans nothing.
	deadline time.Duration
	// flushed is the batch the last Flush handed out. The next Flush swaps
	// it back in as the collection buffer, so a relay alternates between two
	// arrays instead of growing a new one every period.
	flushed []hbmsg.Heartbeat
	closed  bool
	// lastReason is why the last flush left, or why the last Collect
	// demanded the next one (due).
	lastReason FlushReason
	due        bool
}

// New builds a window of the given kind with the relay period T. capacity
// (M) applies to KindNagle; delay applies to KindFixedDelay. The window
// starts closed; call StartPeriod to open the first one.
func New(kind Kind, capacity int, period, delay time.Duration) (*Window, error) {
	w := &Window{kind: kind, period: period, closed: true}
	switch {
	case kind < KindNagle || int(kind) >= len(kindNames):
		return nil, fmt.Errorf("sched: unknown policy kind %d", int(kind))
	case kind == KindNagle && capacity <= 0:
		return nil, fmt.Errorf("sched: capacity must be positive, got %d", capacity)
	case kind == KindFixedDelay && delay <= 0:
		return nil, fmt.Errorf("sched: delay must be positive, got %v", delay)
	case period <= 0:
		return nil, fmt.Errorf("sched: period must be positive, got %v", period)
	case kind == KindNagle:
		w.capacity = capacity
	case kind == KindFixedDelay:
		w.delay = delay
	}
	return w, nil
}

// NewNagle builds the Algorithm 1 scheduler with collection capacity M and
// relay heartbeat period T.
func NewNagle(capacity int, period time.Duration) (*Window, error) {
	return New(KindNagle, capacity, period, 0)
}

// Kind identifies the policy.
func (w *Window) Kind() Kind { return w.kind }

// Capacity returns M, or 0 when the policy is unbounded.
func (w *Window) Capacity() int { return w.capacity }

// Period returns T.
func (w *Window) Period() time.Duration { return w.period }

// SetInstruments attaches telemetry handles; nil detaches them.
func (w *Window) SetInstruments(i *Instruments) { w.ins = i }

// StartPeriod opens a new collection window at the given instant; the
// window closes at instant + the relay period.
func (w *Window) StartPeriod(at time.Duration) {
	w.end = at + w.period
	w.closed = false
	w.pending = w.pending[:0]
	w.deadline = w.end
	w.lastReason, w.due = 0, false
}

// Collect offers a forwarded heartbeat at instant now. It returns
// flushNow = true when the batch must be sent immediately.
func (w *Window) Collect(hb hbmsg.Heartbeat, now time.Duration) (bool, error) {
	if w.closed {
		return false, ErrClosed
	}
	if hb.Expired(now) {
		return false, ErrExpired
	}
	switch w.kind {
	case KindNagle:
		w.deadline = min(w.deadline, hb.Deadline())
	case KindFixedDelay:
		if len(w.pending) == 0 {
			w.deadline = min(w.deadline, now+w.delay)
		}
	}
	if len(w.pending)+1 >= cap(w.pending) {
		w.pending = slices.Grow(w.pending, 2) // hb and the slot Flush promises
	}
	w.pending = append(w.pending, hb)
	w.ins.observeCollect(len(w.pending))
	var reason FlushReason
	switch {
	case w.kind == KindImmediate:
		reason = ReasonPolicy
	// Algorithm 1: pend only while k < M; reaching M sends now.
	case w.kind == KindNagle && len(w.pending) >= w.capacity:
		reason = ReasonCapacity
	// If the message is already due (its deadline is now), send rather than
	// risk expiry.
	case w.kind == KindNagle && w.deadline <= now:
		reason = ReasonDeadline
		if w.deadline == w.end {
			reason = ReasonPeriodEnd
		}
	default:
		return false, nil
	}
	w.lastReason, w.due = reason, true
	return true, nil
}

// Deadline returns the instant by which the pending batch must be flushed,
// and whether a flush is scheduled at all. With no pending messages it is
// the period end, when the relay's own heartbeat goes out regardless.
func (w *Window) Deadline() (time.Duration, bool) {
	if w.closed {
		return 0, false
	}
	return w.deadline, true
}

// Flush drains and returns the pending batch (nil when it is empty) and,
// except under KindImmediate, closes collection until the next period. The
// batch is the caller's until the next Flush; the window may reuse its
// array after that. Its array has room for one heartbeat past its end, so
// the relay appends its own heartbeat, which leaves in the same
// connection, without copying the batch.
func (w *Window) Flush(now time.Duration) []hbmsg.Heartbeat {
	if w.closed {
		return nil
	}
	switch {
	case w.due: // the reason Collect gave stands
	case now >= w.end:
		w.lastReason = ReasonPeriodEnd
	case w.kind == KindNagle:
		w.lastReason = ReasonDeadline
	default:
		w.lastReason = ReasonPolicy
	}
	w.due = false
	out := w.pending
	w.pending, w.flushed = w.flushed[:0], out
	w.closed = w.kind != KindImmediate
	w.ins.observeFlush(len(out), w.deadline-now, w.lastReason, w.closed)
	if len(out) == 0 {
		return nil
	}
	return out
}

// LastFlushReason reports why the most recent flush happened, or, once
// Collect has demanded a flush, why the next one will. It is zero before
// the first flush of a period.
func (w *Window) LastFlushReason() FlushReason { return w.lastReason }

// Pending reports how many heartbeats are waiting.
func (w *Window) Pending() int { return len(w.pending) }

// Accepting reports whether Collect would currently admit a message.
func (w *Window) Accepting() bool {
	return !w.closed && (w.capacity == 0 || len(w.pending) < w.capacity)
}
