// Package inflight is the table of heartbeats sent but not yet
// acknowledged, and the one statement of a client's loss rule. It reads no
// clock: every instant is the caller's, so the simulated UE passes virtual
// instants (time.Unix(0, int64(now))) and the live clients wall time, and
// both run the same table.
package inflight

import (
	"cmp"
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
// The table is addressed by slot, not hashed: each slot keeps its
// in-flight heartbeat inline, and only a second or later heartbeat in
// flight on the same slot — an ack slower than the send period — goes to
// an overflow map. Neither holds a pointer, so the collector never scans
// the table.
//
// Pending is not synchronized: owners guard it with the lock that also
// guards the counters they update alongside it. A socket-per-UE fleet holds
// one per UE, and a simulated city one per UE, so the fields are laid out
// without padding to spare. The zero value is ready to use; it allocates
// nothing until the first Track, and then grows a zeroed slice up to the
// highest slot tracked, copying it as it grows. An owner that knows its
// slots up front sizes the slice once with Reserve instead: a long-lived
// process that runs no GC keeps every array the slice grew out of.
type Pending struct {
	slots []inflight    // by slot: its inline heartbeat
	over  map[Key]entry // the rest in flight; never a slot's inline key
	live  int32         // inline entries in use
}

// entry times are UnixNano. An entry has fallen back once its window was
// re-armed: armed > sent. The two flags share the padding after the times,
// so a slot's inline entry stays 32 bytes.
type entry struct {
	sent   int64 // Track instant; survives the fallback re-arm
	armed  int64 // start of the current ack window
	resend bool  // given at Track: the first lapse hands it back for a resend
	used   bool  // an inline slot holds a heartbeat
}

// inflight is one slot's inline heartbeat.
type inflight struct {
	seq uint64
	entry
}

// inline returns k's inline entry, nil when k is not its slot's inline key.
func (p *Pending) inline(k Key) *inflight {
	if uint(k.Slot) >= uint(len(p.slots)) {
		return nil
	}
	if s := &p.slots[k.Slot]; s.used && s.seq == k.Seq {
		return s
	}
	return nil
}

// get returns k's entry wherever it is stored.
func (p *Pending) get(k Key) (entry, bool) {
	if s := p.inline(k); s != nil {
		return s.entry, true
	}
	e, ok := p.over[k]
	return e, ok
}

// put stores e under k: over k's own entry if it has one, else inline when
// the slot's inline place is free, else in the overflow.
func (p *Pending) put(k Key, e entry) {
	e.used = true
	if k.Slot >= len(p.slots) {
		p.slots = append(p.slots, make([]inflight, k.Slot+1-len(p.slots))...)
	}
	s := &p.slots[k.Slot]
	if s.used && s.seq == k.Seq {
		s.entry = e
		return
	}
	if !s.used && !p.overflowed(k) {
		*s = inflight{seq: k.Seq, entry: e}
		p.live++
		return
	}
	if p.over == nil {
		p.over = make(map[Key]entry)
	}
	p.over[k] = e
}

// overflowed reports whether k is in the overflow.
func (p *Pending) overflowed(k Key) bool {
	if len(p.over) == 0 {
		return false
	}
	_, ok := p.over[k]
	return ok
}

// take removes k and returns its entry.
func (p *Pending) take(k Key) (entry, bool) {
	if s := p.inline(k); s != nil {
		s.used = false
		p.live--
		return s.entry, true
	}
	if len(p.over) == 0 {
		return entry{}, false
	}
	e, ok := p.over[k]
	delete(p.over, k)
	return e, ok
}

// walk calls visit with the key of each entry keep selects, in (slot, seq)
// order: slots in index order, each slot's inline entry merged by seq with
// its overflow entries. Only the selected overflow is sorted, never the
// table. visit may re-arm or remove the entry it is given, and no other.
func (p *Pending) walk(keep func(slot int, e entry) bool, visit func(Key)) {
	if p.Len() == 0 {
		return // owners sweep every tick; most find nothing in flight
	}
	var over []Key
	for k, e := range p.over {
		if keep(k.Slot, e) {
			over = append(over, k)
		}
	}
	slices.SortFunc(over, Key.compare)
	for i := range p.slots {
		s := &p.slots[i]
		if !s.used || !keep(i, s.entry) {
			continue
		}
		k := Key{Slot: i, Seq: s.seq}
		for len(over) > 0 && over[0].compare(k) < 0 {
			visit(over[0])
			over = over[1:]
		}
		visit(k)
	}
	for _, k := range over {
		visit(k)
	}
}

// Reserve sizes the table for slots [0, slots), so that tracking on any of
// them allocates nothing more.
func (p *Pending) Reserve(slots int) {
	if slots > len(p.slots) {
		s := make([]inflight, slots)
		copy(s, p.slots)
		p.slots = s
	}
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
	e, ok := p.get(k)
	return time.Unix(0, e.sent), ok
}

// Lapse returns the earliest instant an open ack window closes, each
// slot's window given by window, for owners that arm a timer instead of
// sweeping on a tick: a Sweep at that instant takes the entry.
func (p *Pending) Lapse(window func(slot int) time.Duration) (time.Time, bool) {
	first, ok := int64(0), false
	earliest := func(slot int, e entry) {
		if end := e.armed + int64(window(slot)); !ok || end < first {
			first, ok = end, true
		}
	}
	for i := range p.slots {
		if p.slots[i].used {
			earliest(i, p.slots[i].entry)
		}
	}
	for k, e := range p.over {
		earliest(k.Slot, e)
	}
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
	n := now.UnixNano()
	lapsed := func(slot int, e entry) bool { return e.armed+int64(window(slot)) <= n }
	p.walk(lapsed, func(k Key) {
		if e, _ := p.get(k); e.resend && e.armed == e.sent {
			e.armed = n
			p.put(k, e)
			resend = append(resend, k)
			return
		}
		p.take(k)
		lost = append(lost, k)
	})
	return resend, lost
}

// Drain empties the table and returns what was left, in (slot, seq) order.
func (p *Pending) Drain() []Key {
	var keys []Key
	p.walk(func(int, entry) bool { return true }, func(k Key) { keys = append(keys, k) })
	clear(p.slots)
	clear(p.over)
	p.live = 0
	return keys
}

// Len reports how many heartbeats await acknowledgement.
func (p *Pending) Len() int { return int(p.live) + len(p.over) }
