package session

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refPending is the map-keyed table Pending replaced, kept as the
// reference the slot table must match op for op.
type refPending struct {
	Fallback bool
	m        map[Key]entry
}

func (p *refPending) Track(k Key, at time.Time) {
	if p.m == nil {
		p.m = make(map[Key]entry)
	}
	n := at.UnixNano()
	p.m[k] = entry{sent: n, armed: n}
}

func (p *refPending) Settle(k Key, now time.Time) (time.Duration, bool) {
	e, ok := p.m[k]
	if !ok {
		return 0, false
	}
	delete(p.m, k)
	return time.Duration(now.UnixNano() - e.armed), true
}

func (p *refPending) Forget(k Key) { delete(p.m, k) }

func (p *refPending) Abandon(k Key) {
	if !p.Fallback {
		delete(p.m, k)
	}
}

func (p *refPending) Sent(k Key) (time.Time, bool) {
	e, ok := p.m[k]
	return time.Unix(0, e.sent), ok
}

func (p *refPending) Oldest() (time.Time, bool) {
	first, ok := int64(0), false
	for _, e := range p.m {
		if !ok || e.armed < first {
			first, ok = e.armed, true
		}
	}
	return time.Unix(0, first), ok
}

func (p *refPending) Sweep(now time.Time, timeout time.Duration) (resend, lost []Key) {
	n := now.UnixNano()
	cutoff := n - int64(timeout)
	var expired []Key
	for k, e := range p.m {
		if e.armed < cutoff {
			expired = append(expired, k)
		}
	}
	slices.SortFunc(expired, Key.compare)
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

func (p *refPending) Drain() []Key {
	keys := make([]Key, 0, len(p.m))
	for k := range p.m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, Key.compare)
	clear(p.m)
	return keys
}

func (p *refPending) Len() int { return len(p.m) }

// table is what both implementations answer.
type table interface {
	Track(Key, time.Time)
	Settle(Key, time.Time) (time.Duration, bool)
	Forget(Key)
	Abandon(Key)
	Sent(Key) (time.Time, bool)
	Oldest() (time.Time, bool)
	Sweep(time.Time, time.Duration) ([]Key, []Key)
	Drain() []Key
	Len() int
}

type opKind int

const (
	opTrack opKind = iota
	opSettle
	opAbandon
	opForget
	opSweep
	opDrain
	opOldest
	opSent
	opLen
)

var opNames = [...]string{"Track", "Settle", "Abandon", "Forget", "Sweep", "Drain", "Oldest", "Sent", "Len"}

// op is one call at a millisecond offset from t0; k is ignored by the
// calls that take no key.
type op struct {
	kind opKind
	k    Key
	ms   int
}

func (o op) String() string { return fmt.Sprintf("%s(%v)@%dms", opNames[o.kind], o.k, o.ms) }

const sweepTimeout = 100 * time.Millisecond

var t0 = time.Unix(1000, 0)

// apply runs o on p and renders what it returned.
func apply(p table, o op) string {
	at := t0.Add(time.Duration(o.ms) * time.Millisecond)
	var out string
	switch o.kind {
	case opTrack:
		p.Track(o.k, at)
	case opSettle:
		lat, ok := p.Settle(o.k, at)
		out = fmt.Sprint(lat, ok)
	case opAbandon:
		p.Abandon(o.k)
	case opForget:
		p.Forget(o.k)
	case opSweep:
		resend, lost := p.Sweep(at, sweepTimeout)
		out = fmt.Sprint("resend ", resend, " lost ", lost)
	case opDrain:
		out = fmt.Sprint(p.Drain())
	case opOldest:
		first, ok := p.Oldest()
		out = fmt.Sprint(first.UnixNano(), ok)
	case opSent:
		sent, ok := p.Sent(o.k)
		out = fmt.Sprint(sent.UnixNano(), ok)
	}
	return out + fmt.Sprintf(" len %d", p.Len())
}

// twin drives the slot table and the reference side by side.
type twin struct {
	t   *testing.T
	got *Pending
	ref *refPending
	cov *coverage
}

func newTwin(t *testing.T, fallback bool, cov *coverage) *twin {
	if cov != nil {
		cov.forgotten = nil // per table
	}
	return &twin{t: t, got: &Pending{Fallback: fallback}, ref: &refPending{Fallback: fallback}, cov: cov}
}

func (w *twin) do(o op) {
	w.t.Helper()
	w.cov.before(w.ref, o)
	if got, want := apply(w.got, o), apply(w.ref, o); got != want {
		w.t.Fatalf("%v: slot table returned %q, reference %q", o, got, want)
	}
	w.cov.after(w.got)
}

// coverage records which of the table's cases a run reached, so the
// property test cannot pass by never leaving the inline fast path.
type coverage struct {
	maxPerSlot     int          // most heartbeats in flight on one slot
	inlineNewer    bool         // an inline seq newer than an overflow seq on its slot
	resent, lost   bool         // a sweep re-armed an entry; one wrote an entry off
	settledRearmed bool         // a re-armed entry settled
	retracked      bool         // a key tracked again after Forget
	forgotten      map[Key]bool // keys Forget removed
}

// before notes what o is about to exercise, read off the reference.
func (c *coverage) before(ref *refPending, o op) {
	if c == nil {
		return
	}
	switch o.kind {
	case opSweep:
		cutoff := t0.Add(time.Duration(o.ms)*time.Millisecond - sweepTimeout).UnixNano()
		for _, e := range ref.m {
			if e.armed < cutoff {
				c.resent = c.resent || ref.Fallback && e.armed == e.sent
				c.lost = c.lost || !ref.Fallback || e.armed != e.sent
			}
		}
	case opSettle:
		e, ok := ref.m[o.k]
		c.settledRearmed = c.settledRearmed || ok && e.armed != e.sent
	case opForget:
		if _, ok := ref.m[o.k]; ok {
			if c.forgotten == nil {
				c.forgotten = map[Key]bool{}
			}
			c.forgotten[o.k] = true
		}
	case opTrack:
		c.retracked = c.retracked || c.forgotten[o.k]
	}
}

// after notes how deep the slot table's storage went.
func (c *coverage) after(p *Pending) {
	if c == nil {
		return
	}
	perSlot := map[int]int{}
	for i, s := range p.slots {
		if s.used {
			perSlot[i]++
		}
	}
	for k := range p.over {
		perSlot[k.Slot]++
		if s := p.slots[k.Slot]; s.used && s.seq > k.Seq {
			c.inlineNewer = true
		}
	}
	for _, n := range perSlot {
		c.maxPerSlot = max(c.maxPerSlot, n)
	}
}

// ascending is keys 1..n on slot 0.
func ascending(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{Seq: uint64(i + 1)}
	}
	return keys
}

// scripts are the hand-written cases, each an input to the property test.
var scripts = []struct {
	name     string
	fallback bool
	ops      []op
}{
	{"sweep and drain walk in key order, not map order", true, func() []op {
		keys := ascending(64)
		rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		var ops []op
		for _, k := range keys {
			ops = append(ops, op{opTrack, k, 0})
		}
		ops = append(ops, op{opSweep, Key{}, 101}, op{opSweep, Key{}, 202})
		for _, k := range keys {
			ops = append(ops, op{opTrack, k, 300})
		}
		return append(ops, op{opDrain, Key{}, 300})
	}()},
	{"first expiry resends with a fresh window, second times out", true, []op{
		{opTrack, Key{Seq: 1}, 0}, {opSweep, Key{}, 100}, {opSweep, Key{}, 150},
		{opSweep, Key{}, 240}, {opSweep, Key{}, 260},
	}},
	{"an empty table is usable before the first Track", true, []op{
		{opForget, Key{Seq: 1}, 0}, {opAbandon, Key{Seq: 1}, 0}, {opSettle, Key{Seq: 1}, 0},
		{opSweep, Key{}, 1000}, {opDrain, Key{}, 1000}, {opOldest, Key{}, 1000},
	}},
	{"no fallback path: first expiry times out", false, []op{
		{opTrack, Key{Seq: 1}, 0}, {opSweep, Key{}, 150},
	}},
	{"settle after fallback counts once, from the resend", true, []op{
		{opTrack, Key{Seq: 1}, 0}, {opSweep, Key{}, 150}, {opSettle, Key{Seq: 1}, 170},
		{opSettle, Key{Seq: 1}, 180}, {opSweep, Key{}, 1000},
	}},
	{"settle reports latency from the send; unknown keys do not settle", true, []op{
		{opTrack, Key{Seq: 1}, 0}, {opSettle, Key{Seq: 1}, 30}, {opSettle, Key{Seq: 2}, 30},
	}},
	{"abandoned heartbeat stays for the fallback sweep", true, []op{
		{opTrack, Key{Seq: 1}, 0}, {opAbandon, Key{Seq: 1}, 0}, {opSweep, Key{}, 150},
	}},
	{"abandoned heartbeat without a fallback is a transport error, not a timeout", false, []op{
		{opTrack, Key{Seq: 1}, 0}, {opAbandon, Key{Seq: 1}, 0}, {opSweep, Key{}, 150},
	}},
	{"sent survives the re-arm; oldest follows the open windows", true, []op{
		{opOldest, Key{}, 0}, {opTrack, Key{Seq: 1}, 0}, {opTrack, Key{Seq: 2}, 40},
		{opOldest, Key{}, 40}, {opSweep, Key{}, 120}, {opOldest, Key{}, 120},
		{opSent, Key{Seq: 1}, 120}, {opForget, Key{Seq: 1}, 120}, {opSent, Key{Seq: 1}, 120},
	}},
	{"an inline seq newer than its slot's overflow still walks last", true, []op{
		{opTrack, Key{Slot: 2, Seq: 1}, 0}, {opTrack, Key{Slot: 2, Seq: 2}, 0},
		{opTrack, Key{Slot: 0, Seq: 9}, 0}, {opSettle, Key{Slot: 2, Seq: 1}, 10},
		{opTrack, Key{Slot: 2, Seq: 3}, 10}, {opSweep, Key{}, 200}, {opDrain, Key{}, 200},
	}},
}

// randomOp draws the next call from the reference's state: fresh seqs per
// slot, settles that mostly hit a heartbeat in flight, and keys that were
// issued before (settled, forgotten or still pending) tracked again.
func randomOp(rng *rand.Rand, ref *refPending, issued []uint64, ms int) op {
	const slots = 4
	s := rng.Intn(slots)
	old := func() Key {
		if issued[s] == 0 {
			return Key{Slot: s, Seq: 1}
		}
		return Key{Slot: s, Seq: 1 + uint64(rng.Intn(int(issued[s])))}
	}
	inFlight := func() Key {
		keys := make([]Key, 0, len(ref.m))
		for k := range ref.m {
			keys = append(keys, k)
		}
		if len(keys) == 0 {
			return old()
		}
		slices.SortFunc(keys, Key.compare)
		return keys[rng.Intn(len(keys))]
	}
	switch r := rng.Intn(100); {
	case r < 35:
		issued[s]++
		return op{opTrack, Key{Slot: s, Seq: issued[s]}, ms}
	case r < 40:
		return op{opTrack, old(), ms}
	case r < 55:
		return op{opSettle, inFlight(), ms}
	case r < 60:
		return op{opSettle, old(), ms}
	case r < 64:
		return op{opAbandon, inFlight(), ms}
	case r < 69:
		return op{opForget, inFlight(), ms}
	case r < 79:
		return op{opSweep, Key{}, ms}
	case r < 80:
		return op{opDrain, Key{}, ms}
	case r < 86:
		return op{opOldest, Key{}, ms}
	case r < 94:
		return op{opSent, inFlight(), ms}
	}
	return op{opLen, Key{}, ms}
}

// TestPending drives the slot table and the map-keyed reference with the
// hand-written scripts and with seeded random call sequences over four
// slots, fallback on and off, and requires identical answers from every
// call: resend, lost and drain lists, latencies, send instants and ok
// results.
func TestPending(t *testing.T) {
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			w := newTwin(t, sc.fallback, nil)
			for _, o := range sc.ops {
				w.do(o)
			}
		})
	}
	t.Run("seeded random call sequences", func(t *testing.T) {
		var cov coverage
		for seed := int64(1); seed <= 40; seed++ {
			for _, fallback := range []bool{true, false} {
				w := newTwin(t, fallback, &cov)
				rng := rand.New(rand.NewSource(seed))
				issued := make([]uint64, 4)
				ms := 0
				for i := 0; i < 600; i++ {
					ms += rng.Intn(8)
					w.do(randomOp(rng, w.ref, issued, ms))
				}
			}
		}
		if cov.maxPerSlot < 4 || !cov.inlineNewer || !cov.resent || !cov.lost || !cov.settledRearmed || !cov.retracked {
			t.Fatalf("random sequences missed a case: %d in flight on one slot at most, inline newer than overflow %v, resent %v, lost %v, re-armed settled %v, re-tracked after Forget %v",
				cov.maxPerSlot, cov.inlineNewer, cov.resent, cov.lost, cov.settledRearmed, cov.retracked)
		}
	})
}

// TestPendingTrackSettleZeroAllocs pins the hot path every owner runs per
// heartbeat: on a warm table, Track and Settle touch the slot in place.
func TestPendingTrackSettleZeroAllocs(t *testing.T) {
	const slots = 1024
	p := Pending{Fallback: true}
	now := time.Unix(1000, 0)
	for i := 0; i < slots; i++ {
		p.Track(Key{Slot: i, Seq: 1}, now)
		p.Settle(Key{Slot: i, Seq: 1}, now)
	}
	seq := uint64(1)
	allocs := testing.AllocsPerRun(20, func() {
		seq++
		for i := 0; i < slots; i++ {
			p.Track(Key{Slot: i, Seq: seq}, now)
		}
		for i := 0; i < slots; i++ {
			if _, ok := p.Settle(Key{Slot: i, Seq: seq}, now); !ok {
				t.Fatalf("slot %d seq %d did not settle", i, seq)
			}
		}
	})
	if allocs != 0 || p.Len() != 0 {
		t.Fatalf("%.1f allocs per %d Track + Settle pairs (len %d), want 0", allocs, slots, p.Len())
	}
}
