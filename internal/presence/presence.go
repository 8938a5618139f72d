// Package presence mirrors the IM server's expiration-timer table
// (Section II-A): every delivered heartbeat resets its sender's timer, and
// a client whose timer lapses is considered offline until the next
// heartbeat arrives. The tracker integrates per-client online time, which
// quantifies the "instantaneity" cost the paper warns about when heartbeats
// are delayed or lost (Section III).
package presence

import (
	"fmt"
	"maps"
	"time"

	"d2dhb/internal/hbmsg"
)

// Timer is one client's expiration-timer state. The zero value is a client
// never heard from. A Tracker keeps one per client ID; the tile kernel keeps
// one per device by population order instead, so a delivery it has already
// resolved to a device needs no map lookup. A Timer is not synchronized.
type Timer struct {
	firstSeen time.Duration // first delivery (tracking anchor)
	lastEvent time.Duration // last delivery processed
	deadline  time.Duration // current expiration instant
	online    time.Duration // accumulated online time
	flaps     int32         // offline→online transitions after the first
	seen      bool
}

// Deliver processes one heartbeat arriving at the server at instant at.
// The timer is reset to at + expiry (reception-based reset, as IM servers
// do); if the previous timer had already lapsed, the gap counts as offline
// time and a presence flap. Deliveries must come in non-decreasing time
// order.
func (s *Timer) Deliver(at, expiry time.Duration) error {
	if at < 0 {
		return fmt.Errorf("presence: negative delivery time %v", at)
	}
	if !s.seen {
		*s = Timer{firstSeen: at, lastEvent: at, deadline: at + expiry, seen: true}
		return nil
	}
	if at < s.lastEvent {
		return fmt.Errorf("presence: delivery at %v before last event %v", at, s.lastEvent)
	}
	if at <= s.deadline {
		// Timer still running: the whole interval was online.
		s.online += at - s.lastEvent
	} else {
		// Timer lapsed at s.deadline; the client was offline until now.
		s.online += s.deadline - s.lastEvent
		s.flaps++
	}
	s.lastEvent = at
	if d := at + expiry; d > s.deadline {
		s.deadline = d
	}
	return nil
}

// Stats reports the integrated presence up to the horizon: total online
// time since the first delivery, the number of offline flaps, and whether
// the client was ever seen.
func (s *Timer) Stats(horizon time.Duration) (online time.Duration, flaps int, seen bool) {
	if !s.seen {
		return 0, 0, false
	}
	online = s.online
	if horizon > s.lastEvent {
		end := s.deadline
		if horizon < end {
			end = horizon
		}
		if end > s.lastEvent {
			online += end - s.lastEvent
		}
	}
	return online, int(s.flaps), true
}

// Availability returns the fraction of time the client was online between
// its first delivery and the horizon. A client that was never seen has zero
// availability.
func (s *Timer) Availability(horizon time.Duration) float64 {
	if !s.seen || horizon <= s.firstSeen {
		return 0
	}
	online, _, _ := s.Stats(horizon)
	return float64(online) / float64(horizon-s.firstSeen)
}

// OnlineAt reports whether the timer is running at instant at (only
// meaningful for instants not before the last processed delivery).
func (s *Timer) OnlineAt(at time.Duration) bool {
	return s.seen && at >= s.firstSeen && at <= s.deadline
}

// Tracker integrates online time per client from delivered heartbeats.
// Deliveries must be fed in non-decreasing time order (the simulation's
// delivery stream already is).
type Tracker struct {
	clients map[hbmsg.DeviceID]*Timer
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{clients: make(map[hbmsg.DeviceID]*Timer)}
}

// Grow makes room for n more clients, so a caller that knows its
// population hears from all of it without growing the tracker's table.
func (t *Tracker) Grow(n int) {
	clients := make(map[hbmsg.DeviceID]*Timer, len(t.clients)+n)
	maps.Copy(clients, t.clients)
	t.clients = clients
}

// timer returns the client's timer, or a never-seen one to answer queries
// about a client the tracker does not know.
func (t *Tracker) timer(id hbmsg.DeviceID) *Timer {
	if s, ok := t.clients[id]; ok {
		return s
	}
	return new(Timer)
}

// Timer returns the client's timer, registering the client if the tracker
// does not know it yet: a caller that resolves its clients once can feed
// Timer.Deliver without a lookup per heartbeat, and the tracker's queries
// read the same timer.
func (t *Tracker) Timer(id hbmsg.DeviceID) *Timer {
	s, ok := t.clients[id]
	if !ok {
		s = new(Timer)
		t.clients[id] = s
	}
	return s
}

// Deliver processes one heartbeat arriving at the server at instant at
// (see Timer.Deliver).
func (t *Tracker) Deliver(hb hbmsg.Heartbeat, at time.Duration) error {
	s, ok := t.clients[hb.Src]
	if !ok {
		s = new(Timer)
	}
	if err := s.Deliver(at, hb.Expiry); err != nil {
		return fmt.Errorf("%w (client %s)", err, hb.Src)
	}
	if !ok {
		t.clients[hb.Src] = s
	}
	return nil
}

// Stats reports a client's integrated presence up to the horizon: total
// online time since its first delivery, the number of offline flaps, and
// whether the client was ever seen.
func (t *Tracker) Stats(id hbmsg.DeviceID, horizon time.Duration) (online time.Duration, flaps int, seen bool) {
	return t.timer(id).Stats(horizon)
}

// Availability returns the fraction of time the client was online between
// its first delivery and the horizon. A client that was never seen has zero
// availability.
func (t *Tracker) Availability(id hbmsg.DeviceID, horizon time.Duration) float64 {
	return t.timer(id).Availability(horizon)
}

// OnlineAt reports whether the client's timer is running at instant at
// (only meaningful for instants not before the last processed delivery).
func (t *Tracker) OnlineAt(id hbmsg.DeviceID, at time.Duration) bool {
	return t.timer(id).OnlineAt(at)
}

// Clients returns how many distinct clients have been seen or registered
// through Timer.
func (t *Tracker) Clients() int { return len(t.clients) }
