// Package inflight is the table of heartbeats sent but not yet
// acknowledged, and the one statement of a client's loss rule. It reads no
// clock: every instant is the caller's, so the simulated UE passes virtual
// instants (time.Unix(0, int64(now))) and the live clients wall time, and
// both run the same table.
package inflight

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// Key names one in-flight heartbeat: the owner's dense slot for the client
// that sent it — a trunk's user index, a UE's app index — and its sequence
// number.
type Key struct {
	Slot int
	Seq  uint64
}

// compare orders keys by (slot, seq), the table's walk order.
func (a Key) compare(b Key) int {
	return cmp.Or(cmp.Compare(a.Slot, b.Slot), cmp.Compare(a.Seq, b.Seq))
}

// Pending is the table of heartbeats sent but not yet acknowledged, and
// the one statement of the client's loss policy: a heartbeat tracked as
// resendable is handed back once, when its ack window lapses, for a
// fallback resend with a fresh window, and written off as timed out when
// the window lapses again; any other heartbeat is written off at its first
// lapse — so no heartbeat is resent twice or counted twice. Whether a
// heartbeat may be resent is its own, given at Track; how long its window
// is, its slot's, given at each Sweep and Lapse. Every walk is in (slot,
// seq) order, so the decisions and the trace records they produce replay
// identically.
//
// The table is addressed by slot, not hashed: a slot keeps its in-flight
// heartbeat inline, in the place at the slot's index modulo the places'
// number, and only a second or later heartbeat in flight on the same slot
// — an ack slower than the send period — goes to an overflow map. A
// heartbeat whose place holds another slot's doubles the places, never
// past the highest slot tracked plus one, where no two slots share one;
// but where the places already number twice the heartbeats in flight, the
// other slot's heartbeat moves to the overflow instead. So the table holds
// about the span of slots in flight, not every slot an owner has, and one
// heartbeat stuck in flight while later slots wrap past it costs a map
// entry, not a doubling per wrap. Neither the places nor the map hold a
// pointer, so the collector never scans the table.
//
// Pending is not synchronized: owners guard it with the lock that also
// guards the counters they update alongside it. A socket-per-UE fleet holds
// one per UE, and a simulated city one per UE, so the fields are laid out
// without padding to spare. The zero value is ready to use; it allocates
// nothing until the first Track, which makes room up to its slot.
type Pending struct {
	places []place       // by slot modulo their number: its inline heartbeat
	over   map[Key]entry // the rest in flight; never a key held in a place
	live   int32         // places in use
	top    int32         // above every slot a place has held
}

// entry times are UnixNano. An entry has fallen back once its window was
// re-armed: armed > sent. The flags and the slot of the heartbeat a place
// holds share the padding after the times, so a place stays 32 bytes.
type entry struct {
	sent   int64 // Track instant; survives the fallback re-arm
	armed  int64 // start of the current ack window
	resend bool  // given at Track: the first lapse hands it back for a resend
	used   bool  // a place holds a heartbeat
	slot   int32 // the slot of the heartbeat a place holds
}

// place holds one slot's inline heartbeat.
type place struct {
	seq uint64
	entry
}

// key returns the key of the heartbeat a used place holds.
func (s *place) key() Key { return Key{Slot: int(s.slot), Seq: s.seq} }

// at returns slot's place, nil when there are none or the slot is outside
// [0, MaxInt32), which only the overflow holds.
func (p *Pending) at(slot int) *place {
	if len(p.places) == 0 || uint(slot) >= math.MaxInt32 {
		return nil
	}
	return &p.places[slot%len(p.places)]
}

// inline returns k's place, nil when no place holds k.
func (p *Pending) inline(k Key) *place {
	if s := p.at(k.Slot); s != nil && s.used && s.key() == k {
		return s
	}
	return nil
}

// put stores e under k: over k's own entry if it has one, else in k's
// place when that is free, else in the overflow when the place holds
// another heartbeat of k's slot. A place that holds another slot's grows
// the places first, unless they already number twice the heartbeats in
// flight: then the other slot's heartbeat, one that outlived the rounds
// after it, moves to the overflow and k takes its place.
func (p *Pending) put(k Key, e entry) {
	e.used, e.slot = true, int32(k.Slot)
	if _, over := p.over[k]; !over && uint(k.Slot) < math.MaxInt32 {
		s := p.at(k.Slot)
		for s == nil || s.used && int(s.slot) != k.Slot {
			if s != nil && len(p.places) >= 2*p.Len() {
				p.overflow(s.key(), s.entry)
				s.used = false
				p.live--
				break
			}
			p.grow(k.Slot)
			s = p.at(k.Slot)
		}
		switch {
		case !s.used:
			*s = place{seq: k.Seq, entry: e}
			p.live++
			p.top = max(p.top, e.slot+1)
			return
		case s.seq == k.Seq:
			s.entry = e
			return
		}
		// A second heartbeat in flight on the slot goes to the overflow.
	}
	p.overflow(k, e)
}

// overflow stores e under k in the overflow map.
func (p *Pending) overflow(k Key, e entry) {
	if p.over == nil {
		p.over = make(map[Key]entry)
	}
	p.over[k] = e
}

// grow makes room for slot, whose place is missing or holds another
// slot's heartbeat: it doubles the places, or makes them one more than the
// highest slot held or tracked where that is fewer, as many as a dense
// slice would hold and where no two slots share a place. Each heartbeat
// moves to its slot's place in the larger array: its own, or one in the
// part just added that no other heartbeat moves to, so the move needs no
// second array, and append amortizes the part added as it does a dense
// slice's.
func (p *Pending) grow(slot int) {
	held := int(p.top)
	p.top = max(p.top, int32(slot)+1)
	n, m := len(p.places), int(p.top)
	if n > 0 {
		m = min(2*n, m)
	}
	p.places = append(p.places, make([]place, m-n)...)
	if held <= n {
		return // every place holds its own slot, which stays
	}
	for i := range n {
		if s := &p.places[i]; s.used {
			if j := int(s.slot) % m; j != i {
				p.places[j], *s = *s, place{}
			}
		}
	}
}

// take removes k and returns its entry.
func (p *Pending) take(k Key) (entry, bool) {
	if s := p.inline(k); s != nil {
		s.used = false
		p.live--
		return s.entry, true
	}
	e, ok := p.over[k]
	delete(p.over, k)
	return e, ok
}

// Track starts k's ack window at the given instant; resend says whether
// its first lapse hands it back for a fallback resend rather than writing
// it off. Track before the frame is written: on loopback the ack can beat
// the sender back here.
func (p *Pending) Track(k Key, at time.Time, resend bool) {
	n := at.UnixNano()
	p.put(k, entry{sent: n, armed: n, resend: resend})
}

// Settle acknowledges k. It returns the time since k's current window
// opened (the resend instant for a heartbeat that fell back), and false
// when k is unknown — already settled over the other path, or stale.
func (p *Pending) Settle(k Key, now time.Time) (time.Duration, bool) {
	e, ok := p.take(k)
	if !ok {
		return 0, false
	}
	return time.Duration(now.UnixNano() - e.armed), true
}

// Sent returns the instant k was first tracked.
func (p *Pending) Sent(k Key) (time.Time, bool) {
	e, ok := p.over[k]
	if s := p.inline(k); s != nil {
		e, ok = s.entry, true
	}
	return time.Unix(0, e.sent), ok
}

// each calls visit with every entry in flight, in no order: the places'
// order is not their slots' once slots wrap around them. visit may change
// the entry it is given and reports whether it stays.
func (p *Pending) each(visit func(k Key, e *entry) bool) {
	for i := range p.places {
		if s := &p.places[i]; s.used && !visit(s.key(), &s.entry) {
			s.used = false
			p.live--
		}
	}
	for k, e := range p.over {
		if visit(k, &e) {
			p.over[k] = e
		} else {
			delete(p.over, k)
		}
	}
}

// Lapse returns the earliest instant an open ack window closes, each
// slot's window given by window, for owners that arm a timer instead of
// sweeping on a tick: a Sweep at that instant takes the entry.
func (p *Pending) Lapse(window func(slot int) time.Duration) (time.Time, bool) {
	first, ok := int64(0), false
	p.each(func(k Key, e *entry) bool {
		if end := e.armed + int64(window(k.Slot)); !ok || end < first {
			first, ok = end, true
		}
		return true
	})
	return time.Unix(0, first), ok
}

// Sweep finds the entries whose window — their slot's, given by window —
// closed at or before now: an entry tracked at t on window w lapses at
// t+w, the instant Lapse reports. The first lapse of an entry tracked as
// resendable re-arms it at now and appends it to resend; any other lapse
// removes the entry and appends it to lost. Both lists are in (slot, seq)
// order; callers pass nil, or a buffer of their own to sweep without
// allocating.
func (p *Pending) Sweep(now time.Time, window func(slot int) time.Duration, resend, lost []Key) ([]Key, []Key) {
	if p.Len() == 0 {
		return resend, lost // owners sweep every tick; most find nothing in flight
	}
	n, r, l := now.UnixNano(), len(resend), len(lost)
	p.each(func(k Key, e *entry) bool {
		switch {
		case e.armed+int64(window(k.Slot)) > n:
		case e.resend && e.armed == e.sent:
			e.armed = n
			resend = append(resend, k)
		default:
			lost = append(lost, k)
			return false
		}
		return true
	})
	slices.SortFunc(resend[r:], Key.compare)
	slices.SortFunc(lost[l:], Key.compare)
	return resend, lost
}

// Drain empties the table and returns what was left, in (slot, seq) order.
func (p *Pending) Drain() []Key {
	var keys []Key
	p.each(func(k Key, _ *entry) bool {
		keys = append(keys, k)
		return false
	})
	slices.SortFunc(keys, Key.compare)
	return keys
}

// Len reports how many heartbeats await acknowledgement.
func (p *Pending) Len() int { return int(p.live) + len(p.over) }

// Places reports how many heartbeats the table holds inline before a
// collision grows it: its size, at 32 B each.
func (p *Pending) Places() int { return len(p.places) }
