package loadgen

import (
	"errors"
	"hash/maphash"
	"sync"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/idindex"
	"d2dhb/internal/rec"
	"d2dhb/internal/session"
	"d2dhb/internal/telemetry"
)

// tuser is one multiplexed virtual user's sequence state on a trunk. Its ID
// is in the trunk's ids column, so the users table holds no pointers and a
// 200 k-user trunk gives the collector nothing to scan per user.
type tuser struct {
	seq  uint64
	last uint64 // highest acknowledged seq
}

// tclient is what a trunk knows of a user from its build on. It is kept out
// of tuser because it never changes: the send path reads it without t.mu,
// while tuser is written under it.
type tclient struct {
	trec int32 // trace client index, -1 when unrecorded
	prof int32 // index into the trunk's profiles
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
	trec     *rec.Recorder // trace recorder; nil-safe
	c        *fleetCounters
	shards   *shardCounter

	// Per-user columns, immutable after build and free of pointers but for
	// the one ID string. byID indexes ids under seed; both back Source.
	ids     userIDs
	clients []tclient
	seed    maphash.Seed
	byID    idindex.Index

	// paceSlots spreads each period's emissions over this many sub-ticks
	// (0 disables pacing: the whole fleet bursts at once); see paced.
	paceSlots int

	// State owned by the send path. Step is the only sender while load is
	// offered (the driver never sweeps a trunk beside it, see Lapse) and
	// drain() sweeps only after the driver has stopped, so no lock is
	// needed.
	up    session.Uplink // one slot per shard; jitter seeded from id
	fresh []session.Key  // one emission's new heartbeats
	view  *cluster.View  // the view owner was filled under
	owner []int32        // user → owning node index + 1 under view; 0 = not resolved yet
	tick  time.Time      // the next sub-tick's instant
	slot  int            // the next sub-tick's pace slot

	mu      sync.Mutex
	users   []tuser
	pending session.Pending // in-flight heartbeats, slot = user index
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

// tickSlot is one sub-tick: emit the users assigned to this slot, after
// expiring and re-sending stale pendings on slot 0 — once per period, so
// fallback/timeout timing is unchanged by pacing.
func (t *trunk) tickSlot(slot int) {
	now := time.Now()
	var resend []session.Key
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
func (t *trunk) emit(lo, hi int, now time.Time, resend []session.Key) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	fresh := t.fresh[:0]
	for i := lo; i < hi; i++ {
		t.users[i].seq++
		fresh = append(fresh, session.Key{Slot: i, Seq: t.users[i].seq})
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
func (t *trunk) offer(refs []session.Key, now time.Time) {
	t.mu.Lock()
	for _, ref := range refs {
		t.pending.Track(ref, now)
	}
	t.mu.Unlock()
	t.send(refs, now, false)
}

// index builds byID, hashing each user's ID once.
func (t *trunk) index() {
	t.seed = maphash.MakeSeed()
	t.byID.Reserve(len(t.ids.ends))
	start := int32(0)
	for i, end := range t.ids.ends {
		t.byID.Insert(maphash.String(t.seed, t.ids.all[start:end]), int32(i))
		start = end
	}
}

// send writes heartbeats through the uplink, one chunked Batch per owning
// shard under one ring view. Heartbeats that never hit the wire are
// abandoned to the pending table: they stay for the sweep when fallback is
// available and are forgotten (a transport error, not an ack timeout)
// otherwise.
func (t *trunk) send(refs []session.Key, now time.Time, fallback bool) {
	parts := t.up.Send(now, len(refs),
		func(v *cluster.View, i int) int { return t.ownerOf(v, refs[i].Slot) },
		func(i int) hbproto.Heartbeat {
			u := refs[i].Slot
			p := &t.profiles[t.clients[u].prof]
			return hbproto.Heartbeat{
				Src: t.ids.at(u), Seq: refs[i].Seq, App: p.app,
				Origin: now, Expiry: p.expiry, Pad: p.pad,
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
			t.mu.Lock()
			for _, i := range p.Pos {
				t.pending.Abandon(refs[i])
			}
			t.mu.Unlock()
			continue
		}
		t.c.trunkWrites.Add(1)
		t.c.trunkFrames.Add(uint64(p.Frames))
		if fallback {
			t.c.fallbackResends.Add(uint64(len(p.Pos)))
		} else {
			t.c.sentRelayed.Add(uint64(len(p.Pos)))
			if t.trec != nil {
				for _, i := range p.Pos {
					t.trec.Record(rec.EvSend, int(t.clients[refs[i].Slot].trec), refs[i].Seq, now)
				}
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
func (t *trunk) collectExpired(now time.Time) []session.Key {
	t.mu.Lock()
	resend, lost := t.pending.Sweep(now, t.timeout)
	t.timedOut(lost, now)
	t.mu.Unlock()
	return resend
}

// timedOut writes off heartbeats the pending table gave up on (t.mu held).
func (t *trunk) timedOut(refs []session.Key, now time.Time) {
	for _, ref := range refs {
		t.trec.Record(rec.EvTimeout, int(t.clients[ref.Slot].trec), ref.Seq, now)
	}
	t.c.timeoutRelayed.Add(uint64(len(refs)))
}

// Sweep re-sends expired heartbeats (drain-phase entry point; tick folds
// the same collection into its round).
func (t *trunk) Sweep(now time.Time) {
	if resend := t.collectExpired(now); len(resend) > 0 {
		t.send(resend, now, true)
	}
}

// Source is the trunk's hbproto.SourceTable: a source's handle is its user
// index + 1 on every dial. A shard acks its users in the order they went
// out, so the 8 users after the previous ack's are compared before hashing.
func (t *trunk) Source(after hbproto.Handle, b []byte) (string, hbproto.Handle) {
	ends, start := t.ids.ends, int32(0)
	if after > 0 {
		start = ends[after-1]
	}
	for u := int(after); u < min(int(after)+8, len(ends)); u++ {
		if id := t.ids.all[start:ends[u]]; id == string(b) {
			return id, hbproto.Handle(u + 1)
		}
		start = ends[u]
	}
	u, ok := t.byID.Find(maphash.Bytes(t.seed, b), func(u int32) bool { return t.ids.at(int(u)) == string(b) })
	if !ok {
		return "", 0
	}
	return t.ids.at(int(u)), hbproto.Handle(u + 1)
}

// onRefs matches batch-ack refs against pending heartbeats and records
// latency; stale refs, and refs to no user of the trunk (handle 0, see
// Source), are ignored. A frame's refs share an arrival time and one or two
// emissions, so latencies are recorded once per run of equal values.
func (t *trunk) onRefs(refs []hbproto.Ref, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var acked, run, lat uint64
	for _, ref := range refs {
		i := int(ref.Handle) - 1 // handle 0: slot -1, which nothing pending has
		d, ok := t.pending.Settle(session.Key{Slot: i, Seq: ref.Seq}, at)
		if !ok {
			continue
		}
		if us := uint64(d / time.Microsecond); us != lat {
			t.rec.RecordN(lat, run)
			lat, run = us, 0
		}
		run++
		acked++
		if t.trec != nil {
			t.trec.Record(rec.EvAck, int(t.clients[i].trec), ref.Seq, at)
		}
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
