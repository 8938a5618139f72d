// Package sched implements the paper's core contribution: the relay-side
// message scheduling algorithm (Algorithm 1), a Nagle-derived policy that
// delays the relay's own heartbeat and sends it together with the heartbeats
// forwarded by UEs in a single cellular connection, subject to three
// constraints: the collection capacity M, each forwarded message's
// expiration time T_k, and the relay's own heartbeat period T.
//
// Baseline policies (immediate send, fixed delay, period-aligned) are
// provided for the ablation benchmarks.
package sched

import (
	"errors"
	"fmt"
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

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNagle:
		return "nagle"
	case KindImmediate:
		return "immediate"
	case KindFixedDelay:
		return "fixed-delay"
	case KindPeriodAligned:
		return "period-aligned"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// FlushReason explains why a batch was released.
type FlushReason int

// Flush reasons.
const (
	ReasonCapacity  FlushReason = iota + 1 // k reached M
	ReasonDeadline                         // a collected message's T_k forced the send
	ReasonPeriodEnd                        // the relay's own period T elapsed
	ReasonPolicy                           // policy-specific (immediate / fixed delay)
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

// Policy is a relay-side heartbeat scheduling strategy. The relay drives it:
// StartPeriod at each of its own heartbeat periods, Collect on every
// forwarded heartbeat, and Flush when Collect demands it or the Deadline
// arrives.
//
// Implementations are pure state machines with no timers of their own; this
// keeps them usable from both the discrete-event simulator and the real
// TCP relay agent.
type Policy interface {
	// Kind identifies the policy.
	Kind() Kind
	// StartPeriod opens a new collection window at the given instant; the
	// window closes at instant + the relay period.
	StartPeriod(at time.Duration)
	// Collect offers a forwarded heartbeat at instant now. It returns
	// flushNow = true when the batch must be sent immediately.
	Collect(hb hbmsg.Heartbeat, now time.Duration) (flushNow bool, err error)
	// Deadline returns the instant by which the pending batch must be
	// flushed, and whether a flush is scheduled at all.
	Deadline() (at time.Duration, ok bool)
	// Flush drains and returns the pending batch, closing collection until
	// the next period. The batch is the caller's until the next Flush; a
	// policy may reuse its array after that.
	Flush(now time.Duration) []hbmsg.Heartbeat
	// Pending reports how many heartbeats are waiting.
	Pending() int
	// Accepting reports whether Collect would currently admit a message.
	Accepting() bool
}

// Nagle is Algorithm 1. Within each relay heartbeat period it buffers
// forwarded heartbeats while
//
//	k < M  &&  t − t_k < T_k (for every collected message)  &&  t < T
//
// and flushes as soon as any bound is reached, sending everything in one
// cellular connection together with the relay's own heartbeat.
type Nagle struct {
	instrumented
	capacity int
	period   time.Duration

	periodStart time.Duration
	pending     []hbmsg.Heartbeat
	// deadline is min(period end, earliest pending deadline), kept as
	// heartbeats are collected: a window only grows until the flush that
	// empties it, so the running minimum is exact and Deadline scans nothing.
	deadline time.Duration
	// flushed is the batch the last Flush handed out. The next Flush swaps
	// it back in as the collection buffer, so a relay alternates between two
	// arrays instead of growing a new one every period.
	flushed    []hbmsg.Heartbeat
	closed     bool
	lastReason FlushReason
}

var _ Policy = (*Nagle)(nil)

// NewNagle builds the Algorithm 1 scheduler with collection capacity M and
// relay heartbeat period T. The scheduler starts closed; call StartPeriod to
// open the first collection window.
func NewNagle(capacity int, period time.Duration) (*Nagle, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("sched: capacity must be positive, got %d", capacity)
	}
	if period <= 0 {
		return nil, fmt.Errorf("sched: period must be positive, got %v", period)
	}
	return &Nagle{capacity: capacity, period: period, closed: true}, nil
}

// Kind implements Policy.
func (n *Nagle) Kind() Kind { return KindNagle }

// Capacity returns M.
func (n *Nagle) Capacity() int { return n.capacity }

// Period returns T.
func (n *Nagle) Period() time.Duration { return n.period }

// StartPeriod implements Policy.
func (n *Nagle) StartPeriod(at time.Duration) {
	n.periodStart = at
	n.closed = false
	n.pending = n.pending[:0]
	n.deadline = n.periodEnd()
	n.lastReason = 0
}

// periodEnd returns the hard bound t < T for the current window.
func (n *Nagle) periodEnd() time.Duration { return n.periodStart + n.period }

// Collect implements Policy.
func (n *Nagle) Collect(hb hbmsg.Heartbeat, now time.Duration) (bool, error) {
	if n.closed {
		n.ins.observeReject(ErrClosed)
		return false, ErrClosed
	}
	if hb.Expired(now) {
		n.ins.observeReject(ErrExpired)
		return false, ErrExpired
	}
	n.pending = append(n.pending, hb)
	n.deadline = min(n.deadline, hb.Deadline())
	n.ins.observeCollect(len(n.pending))
	// Algorithm 1: pend only while k < M; reaching M sends now.
	if len(n.pending) >= n.capacity {
		n.lastReason = ReasonCapacity
		return true, nil
	}
	// If the message is already due (its deadline is now), send rather
	// than risk expiry.
	if at, ok := n.Deadline(); ok && at <= now {
		if at == n.periodEnd() {
			n.lastReason = ReasonPeriodEnd
		} else {
			n.lastReason = ReasonDeadline
		}
		return true, nil
	}
	return false, nil
}

// Deadline implements Policy: min(period end, earliest collected deadline).
// With no pending messages the deadline is the period end, when the relay's
// own heartbeat goes out regardless.
func (n *Nagle) Deadline() (time.Duration, bool) {
	if n.closed {
		return 0, false
	}
	return n.deadline, true
}

// Flush implements Policy.
func (n *Nagle) Flush(now time.Duration) []hbmsg.Heartbeat {
	if n.closed {
		return nil
	}
	if at, ok := n.Deadline(); ok {
		n.ins.observeFlush(len(n.pending), at-now)
	}
	if n.lastReason == 0 {
		if now >= n.periodEnd() {
			n.lastReason = ReasonPeriodEnd
		} else {
			n.lastReason = ReasonDeadline
		}
	}
	out := n.pending
	n.pending, n.flushed = n.flushed[:0], out
	n.closed = true
	return out
}

// LastFlushReason reports why the most recent flush happened. It is zero
// before the first flush of a period.
func (n *Nagle) LastFlushReason() FlushReason { return n.lastReason }

// Pending implements Policy.
func (n *Nagle) Pending() int { return len(n.pending) }

// Accepting implements Policy.
func (n *Nagle) Accepting() bool { return !n.closed && len(n.pending) < n.capacity }
