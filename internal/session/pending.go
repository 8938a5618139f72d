package session

import (
	"slices"
	"time"
)

// Pending is the table of heartbeats sent but not yet acknowledged, and
// the one statement of the client's loss policy: a heartbeat whose ack
// window lapses is handed back once for a fallback resend with a fresh
// window (when the owner has a fallback path), and written off as timed
// out when the window lapses again — so no heartbeat is resent twice or
// counted twice. Every walk is in key order, never map order, so the
// decisions and the trace records they produce replay identically.
//
// Pending is not synchronized: owners guard it with the lock that also
// guards the counters they update alongside it. A Pending with Cmp set is
// ready to use; it allocates nothing until the first Track.
type Pending[K comparable] struct {
	// Cmp orders the keys.
	Cmp func(a, b K) int
	// Fallback says whether the owner can resend over a second path.
	Fallback bool

	m map[K]entry
}

// entry times are UnixNano. An entry has fallen back once its window was
// re-armed: armed > sent.
type entry struct {
	sent  int64 // Track instant; survives the fallback re-arm
	armed int64 // start of the current ack window
}

// Track starts k's ack window at the given instant. Track before the
// frame is written: on loopback the ack can beat the sender back here.
func (p *Pending[K]) Track(k K, at time.Time) {
	if p.m == nil {
		p.m = make(map[K]entry)
	}
	n := at.UnixNano()
	p.m[k] = entry{sent: n, armed: n}
}

// Settle acknowledges k. It returns the time since k's current window
// opened (the resend instant for a heartbeat that fell back), and false
// when k is unknown — already settled over the other path, or stale.
func (p *Pending[K]) Settle(k K, now time.Time) (time.Duration, bool) {
	e, ok := p.m[k]
	if !ok {
		return 0, false
	}
	delete(p.m, k)
	return time.Duration(now.UnixNano() - e.armed), true
}

// Forget stops tracking k without an outcome.
func (p *Pending[K]) Forget(k K) { delete(p.m, k) }

// Abandon is for a heartbeat whose frame never reached the wire (dial or
// write failure on the primary path). With a fallback path the entry
// stays, and the sweep resends it once routes converge; without one it is
// forgotten, so a transport error is not also counted as an ack timeout.
func (p *Pending[K]) Abandon(k K) {
	if !p.Fallback {
		delete(p.m, k)
	}
}

// Sent returns the instant k was first tracked.
func (p *Pending[K]) Sent(k K) (time.Time, bool) {
	e, ok := p.m[k]
	return time.Unix(0, e.sent), ok
}

// Oldest returns the start of the earliest open ack window, for owners
// that arm a timer instead of sweeping on a tick.
func (p *Pending[K]) Oldest() (time.Time, bool) {
	first, ok := int64(0), false
	for _, e := range p.m {
		if !ok || e.armed < first {
			first, ok = e.armed, true
		}
	}
	return time.Unix(0, first), ok
}

// Sweep finds the entries whose window opened more than timeout before
// now. First expiry with a fallback path: the entry is re-armed at now and
// returned in resend. Otherwise it is removed and returned in lost. Both
// lists are in key order.
func (p *Pending[K]) Sweep(now time.Time, timeout time.Duration) (resend, lost []K) {
	n := now.UnixNano()
	cutoff := n - int64(timeout)
	var expired []K
	for k, e := range p.m {
		if e.armed < cutoff {
			expired = append(expired, k)
		}
	}
	slices.SortFunc(expired, p.Cmp)
	for _, k := range expired {
		if e := p.m[k]; p.Fallback && e.armed == e.sent {
			p.m[k] = entry{sent: e.sent, armed: n}
			resend = append(resend, k)
			continue
		}
		delete(p.m, k)
		lost = append(lost, k)
	}
	return resend, lost
}

// Drain empties the table and returns what was left, in key order.
func (p *Pending[K]) Drain() []K {
	keys := make([]K, 0, len(p.m))
	for k := range p.m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, p.Cmp)
	clear(p.m)
	return keys
}

// Len reports how many heartbeats await acknowledgement.
func (p *Pending[K]) Len() int { return len(p.m) }
