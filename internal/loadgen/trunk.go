package loadgen

import (
	"errors"
	"sync"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/inflight"
	"d2dhb/internal/session"
	"d2dhb/internal/telemetry"
	"d2dhb/internal/trace"
)

// tuser is one multiplexed virtual user's sequence state on a trunk. Its ID
// is in the trunk's ids column, so the users table holds no pointers and a
// 200 k-user trunk gives the collector nothing to scan per user.
type tuser struct {
	seq  uint64
	last uint64 // highest acknowledged seq
}

// tprofile is what a trunk user's heartbeats carry besides source and seq.
// A load-generator trunk has one; a replayed relay group has one per
// distinct recorded (app, expiry, pad), since loadgen rotates profiles per
// UE and a group can mix them.
type tprofile struct {
	app    string
	expiry time.Duration
	pad    int
}

// trunk multiplexes many virtual users over one hbproto relay connection
// per target shard — the paper's aggregation argument applied to the load
// generator itself, and the only way a single box offers a million users
// (per-UE sockets exhaust ephemeral ports around a few tens of thousands
// per destination). Every tick each user emits one heartbeat; the trunk's
// session.Uplink partitions them per owning shard under a single ring view
// and writes one chunked Batch per shard, backing off a shard it cannot
// reach. A heartbeat whose ack misses the window is re-sent once
// through the then-current view before a second miss counts as a timeout,
// mirroring the UE's fallback that keeps reshards lossless.
type trunk struct {
	id       string
	period   time.Duration
	profiles []tprofile // immutable after build; the first one registers the trunk
	timeout  time.Duration
	rec      *telemetry.Recorder
	tracer   trace.Tracer // its users' events; nil: none
	c        *fleetCounters
	shards   *shardCounter

	// Per-user columns, immutable after build and free of pointers but for
	// the one ID string. They are kept out of tuser because they never
	// change: the send path reads them without t.mu.
	ids  userIDs
	prof []int32 // index into profiles; nil: every user runs profiles[0]

	// paceSlots spreads each period's emissions over this many sub-ticks
	// (0 disables pacing: the whole fleet bursts at once); see paced.
	paceSlots int

	// State owned by the send path. Step is the only sender while load is
	// offered (the driver never sweeps a trunk beside it, see Lapse) and
	// drain() sweeps only after the driver has stopped, so no lock is
	// needed.
	up    session.Uplink // one slot per shard; jitter seeded from id
	fresh []inflight.Key // one emission's new heartbeats
	view  *cluster.View  // the view owner was filled under
	owner []int32        // user → owning node index + 1 under view; 0 = not resolved yet
	tick  time.Time      // the next sub-tick's instant
	slot  int            // the next sub-tick's pace slot

	mu      sync.Mutex
	users   []tuser
	pending inflight.Pending // in-flight heartbeats, slot = user index, each resendable once
	closed  bool
}

// Begin anchors the trunk's sub-ticks at first, its first one then.
func (t *trunk) Begin(first time.Time) time.Time {
	t.tick, t.slot = first, 0
	return first
}

// Step is one sub-tick of the send loop: batch one heartbeat per user of
// the sub-tick's pace slot, and return the next sub-tick's instant. With
// pacing enabled the period is divided into paceSlots sub-ticks and each
// user's emission lands in the sub-tick of its index block — every user
// still sends exactly once per period (the open-loop schedule is
// preserved), only the intra-period phase changes, which flattens the
// per-period burst the server would otherwise absorb all at once. A
// sub-tick held up past later ones drops them, as a time.Ticker would.
func (t *trunk) Step(time.Time) (time.Time, bool) {
	slots := max(t.paceSlots, 1) // unpaced, a period is one sub-tick
	t.tickSlot(t.slot)
	t.slot = (t.slot + 1) % slots
	every := t.period / time.Duration(slots)
	t.tick = t.tick.Add(every)
	if late := time.Since(t.tick); late >= 0 {
		t.tick = t.tick.Add((late/every + 1) * every)
	}
	return t.tick, true
}

// Lapse reports nothing in flight: a trunk applies its loss policy in its
// own step, on pace slot 0, so the driver never sweeps it beside one.
func (t *trunk) Lapse() (time.Time, bool) { return time.Time{}, false }

// pendingLapse returns when the trunk's earliest ack window closes, for a
// replay, which steps a trunk only at its recorded emissions and sweeps it
// between them from its own step.
func (t *trunk) pendingLapse() (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pending.Lapse(func(int) time.Duration { return t.timeout })
}

// tickSlot is one sub-tick: emit the users assigned to this slot, after
// expiring and re-sending stale pendings on slot 0 — once per period, so
// fallback/timeout timing is unchanged by pacing.
func (t *trunk) tickSlot(slot int) {
	now := time.Now()
	var resend []inflight.Key
	if slot == 0 {
		resend = t.collectExpired(now)
	}
	lo, hi := t.paced(slot)
	t.emit(lo, hi, now, resend)
}

// paced returns the users of pace slot s, [lo, hi): the s-th of paceSlots
// index blocks (all users when unpaced), whose sizes differ by at most one. A sub-tick's users are
// one run of every per-user column, so emission, tracking and settling
// walk memory in order instead of scattering over the whole fleet.
func (t *trunk) paced(s int) (lo, hi int) {
	n, slots := len(t.users), max(t.paceSlots, 1)
	return s * n / slots, (s + 1) * n / slots
}

// emit sends one fresh heartbeat for each user in [lo, hi) plus any
// expired re-sends.
func (t *trunk) emit(lo, hi int, now time.Time, resend []inflight.Key) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	fresh := t.fresh[:0]
	for i := lo; i < hi; i++ {
		t.users[i].seq++
		fresh = append(fresh, inflight.Key{Slot: i, Seq: t.users[i].seq})
	}
	t.fresh = fresh
	t.mu.Unlock()
	if len(fresh) > 0 {
		t.offer(fresh, now)
	}
	if len(resend) > 0 {
		t.send(resend, now, true)
	}
}

// offer tracks fresh heartbeats — (user index, seq) pairs — and sends them
// as one round. The trunk's own emission numbers them itself; a replay
// hands in the recorded ones.
func (t *trunk) offer(refs []inflight.Key, now time.Time) {
	t.mu.Lock()
	for _, ref := range refs {
		t.pending.Track(ref, now, true)
	}
	t.mu.Unlock()
	t.send(refs, now, false)
}

// send writes heartbeats through the uplink, one chunked Batch per owning
// shard under one ring view. Each heartbeat's Handle is its user index + 1,
// which the uplink hands back with its ack. Heartbeats that never hit the
// wire stay in the pending table: the sweep resends them once through the
// then-current view. The tracer gets each heartbeat of a share that reached
// the wire as its user's d2d-send, or fallback for a resend, at now.
func (t *trunk) send(refs []inflight.Key, now time.Time, fallback bool) {
	parts := t.up.Send(now, len(refs),
		func(v *cluster.View, i int) int { return t.ownerOf(v, refs[i].Slot) },
		func(i int) hbproto.Heartbeat {
			u := refs[i].Slot
			p := &t.profiles[0]
			if t.prof != nil {
				p = &t.profiles[t.prof[u]]
			}
			return hbproto.Heartbeat{
				Src: t.ids.at(u), Seq: refs[i].Seq, App: p.app,
				Origin: now, Expiry: p.expiry, Pad: p.pad,
				Handle: hbproto.Handle(u + 1),
			}
		})
	for i := range parts {
		p := &parts[i]
		if len(p.Pos) == 0 {
			continue
		}
		if p.Err != nil {
			if errors.Is(p.Err, session.ErrWrite) {
				t.c.writeErrors.Add(1)
			} else {
				t.c.dialErrors.Add(1)
			}
			continue
		}
		t.c.trunkWrites.Add(1)
		t.c.trunkFrames.Add(uint64(p.Frames))
		if fallback {
			t.c.fallbackResends.Add(uint64(len(p.Pos)))
		} else {
			t.c.sentRelayed.Add(uint64(len(p.Pos)))
		}
		if t.tracer != nil {
			kind := trace.KindD2DSend
			if fallback {
				kind = trace.KindFallback
			}
			for _, i := range p.Pos {
				t.traceEvent(kind, refs[i], now)
			}
		}
		t.shards.add(p.Node, uint64(len(p.Pos)))
	}
}

// ownerOf returns user u's owning node index under view v, resolved through
// the ring once per view.
func (t *trunk) ownerOf(v *cluster.View, u int) int {
	if v != t.view {
		t.view, t.owner = v, make([]int32, len(t.users))
	}
	o := t.owner[u]
	if o == 0 {
		o = int32(v.Ring().OwnerIndex(t.ids.at(u))) + 1
		t.owner[u] = o
	}
	return int(o) - 1
}

// collectExpired applies the pending table's loss policy, recording the
// write-offs and returning the heartbeats due one fallback re-send.
func (t *trunk) collectExpired(now time.Time) []inflight.Key {
	t.mu.Lock()
	resend, lost := t.pending.Sweep(now, func(int) time.Duration { return t.timeout }, nil, nil)
	t.timedOut(lost, now)
	t.mu.Unlock()
	return resend
}

// timedOut writes off heartbeats the pending table gave up on (t.mu held).
func (t *trunk) timedOut(refs []inflight.Key, now time.Time) {
	for _, ref := range refs {
		t.traceEvent(trace.KindTimeout, ref, now)
	}
	t.c.timeoutRelayed.Add(uint64(len(refs)))
}

// traceEvent hands the tracer, if any, one event of user ref.Slot's heartbeat
// ref.Seq, which went through the trunk. An ack is the server's.
func (t *trunk) traceEvent(kind trace.Kind, ref inflight.Key, at time.Time) {
	if t.tracer == nil {
		return
	}
	ev := trace.Event{At: trace.Unix(at), Device: t.ids.at(ref.Slot), Kind: kind, Seq: ref.Seq, Peer: t.id}
	if kind == trace.KindAck {
		ev.Reason = trace.ReasonServerAck
	}
	t.tracer.Emit(ev)
}

// Sweep re-sends expired heartbeats (drain-phase entry point; tick folds
// the same collection into its round).
func (t *trunk) Sweep(now time.Time) {
	if resend := t.collectExpired(now); len(resend) > 0 {
		t.send(resend, now, true)
	}
}

// onRefs matches batch-ack refs against pending heartbeats and records
// latency. A ref's handle is the one send gave its heartbeat, its user
// index + 1; stale refs, and refs to no user of the trunk, are ignored. An
// ack's refs share an arrival time and one or two emissions, so latencies
// are recorded once per run of equal values.
func (t *trunk) onRefs(refs []hbproto.Ref, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var acked, run, lat uint64
	for _, ref := range refs {
		i := int(ref.Handle) - 1 // handle 0: slot -1, which nothing pending has
		d, ok := t.pending.Settle(inflight.Key{Slot: i, Seq: ref.Seq}, at)
		if !ok {
			continue
		}
		if us := uint64(d / time.Microsecond); us != lat {
			t.rec.RecordN(lat, run)
			lat, run = us, 0
		}
		run++
		acked++
		t.traceEvent(trace.KindAck, inflight.Key{Slot: i, Seq: ref.Seq}, at)
		if ref.Seq <= t.users[i].last {
			t.c.outOfOrderAcks.Add(1)
		} else {
			t.users[i].last = ref.Seq
		}
	}
	t.rec.RecordN(lat, run)
	t.c.ackedRelayed.Add(acked)
}

// InFlight returns how many heartbeats still await acknowledgement.
func (t *trunk) InFlight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pending.Len()
}

// Shutdown writes off every remaining pending heartbeat (end-of-run drain),
// shuts every shard connection down and waits for the readers.
func (t *trunk) Shutdown() {
	t.mu.Lock()
	t.timedOut(t.pending.Drain(), time.Now())
	t.closed = true
	t.mu.Unlock()
	t.up.Close()
}
