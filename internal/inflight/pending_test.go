package inflight

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// refPending is the map-keyed table Pending replaced, kept as the
// reference the slot table must match op for op.
type refPending struct {
	m map[Key]entry
}

func (p *refPending) Track(k Key, at time.Time, resend bool) {
	if p.m == nil {
		p.m = make(map[Key]entry)
	}
	n := at.UnixNano()
	p.m[k] = entry{sent: n, armed: n, resend: resend}
}

func (p *refPending) Settle(k Key, now time.Time) (time.Duration, bool) {
	e, ok := p.m[k]
	if !ok {
		return 0, false
	}
	delete(p.m, k)
	return time.Duration(now.UnixNano() - e.armed), true
}

func (p *refPending) Sent(k Key) (time.Time, bool) {
	e, ok := p.m[k]
	return time.Unix(0, e.sent), ok
}

func (p *refPending) Lapse(window func(int) time.Duration) (time.Time, bool) {
	first, ok := int64(0), false
	for k, e := range p.m {
		if end := e.armed + int64(window(k.Slot)); !ok || end < first {
			first, ok = end, true
		}
	}
	return time.Unix(0, first), ok
}

func (p *refPending) Sweep(now time.Time, window func(int) time.Duration, resend, lost []Key) ([]Key, []Key) {
	n := now.UnixNano()
	var expired []Key
	for k, e := range p.m {
		if e.armed+int64(window(k.Slot)) <= n {
			expired = append(expired, k)
		}
	}
	slices.SortFunc(expired, Key.compare)
	for _, k := range expired {
		if e := p.m[k]; e.resend && e.armed == e.sent {
			e.armed = n
			p.m[k] = e
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
	Track(Key, time.Time, bool)
	Settle(Key, time.Time) (time.Duration, bool)
	Sent(Key) (time.Time, bool)
	Lapse(func(int) time.Duration) (time.Time, bool)
	Sweep(time.Time, func(int) time.Duration, []Key, []Key) ([]Key, []Key)
	Drain() []Key
	Len() int
}

type opKind int

const (
	opTrack       opKind = iota // a heartbeat the table writes off at its first lapse
	opTrackResend               // one it hands back once for a resend
	opSettle
	opSweep
	opDrain
	opLapse
	opSent
	opLen
)

var opNames = [...]string{"Track", "TrackResend", "Settle", "Sweep", "Drain", "Lapse", "Sent", "Len"}

// op is one call at a millisecond offset from t0; k is ignored by the
// calls that take no key.
type op struct {
	kind opKind
	k    Key
	ms   int
}

func (o op) String() string { return fmt.Sprintf("%s(%v)@%dms", opNames[o.kind], o.k, o.ms) }

// window is the slot's ack window: 100 ms on slot 0, 50 ms more per slot
// after it, so the slots of one table lapse at different instants.
func window(slot int) time.Duration {
	return 100*time.Millisecond + time.Duration(slot)*50*time.Millisecond
}

var t0 = time.Unix(1000, 0)

// apply runs o on p and renders what it returned.
func apply(p table, o op) string {
	at := t0.Add(time.Duration(o.ms) * time.Millisecond)
	var out string
	switch o.kind {
	case opTrack, opTrackResend:
		p.Track(o.k, at, o.kind == opTrackResend)
	case opSettle:
		lat, ok := p.Settle(o.k, at)
		out = fmt.Sprint(lat, ok)
	case opSweep:
		resend, lost := p.Sweep(at, window, nil, nil)
		out = fmt.Sprint("resend ", resend, " lost ", lost)
	case opDrain:
		out = fmt.Sprint(p.Drain())
	case opLapse:
		end, ok := p.Lapse(window)
		out = fmt.Sprint(end.UnixNano(), ok)
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

func newTwin(t *testing.T, cov *coverage) *twin {
	if cov != nil {
		cov.gone = nil // per table
	}
	return &twin{t: t, got: &Pending{}, ref: &refPending{}, cov: cov}
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
	resent         bool         // a sweep re-armed an entry
	lostFirst      bool         // a sweep wrote off an entry at its first lapse
	lostResent     bool         // one wrote off an entry that had fallen back
	ownWindow      bool         // an entry slot 0's window would have lapsed survived on its own
	settledRearmed bool         // a re-armed entry settled
	retracked      bool         // a key tracked again after it left the table
	gone           map[Key]bool // keys that left the table
}

// before notes what o is about to exercise, read off the reference.
func (c *coverage) before(ref *refPending, o op) {
	if c == nil {
		return
	}
	left := func(k Key) {
		if c.gone == nil {
			c.gone = map[Key]bool{}
		}
		c.gone[k] = true
	}
	n := t0.Add(time.Duration(o.ms) * time.Millisecond).UnixNano()
	switch o.kind {
	case opSweep:
		for k, e := range ref.m {
			switch {
			case e.armed+int64(window(k.Slot)) > n:
				c.ownWindow = c.ownWindow || e.armed+int64(window(0)) <= n
			case e.resend && e.armed == e.sent:
				c.resent = true
			default:
				c.lostFirst = c.lostFirst || e.armed == e.sent
				c.lostResent = c.lostResent || e.armed != e.sent
				left(k)
			}
		}
	case opDrain:
		for k := range ref.m {
			left(k)
		}
	case opSettle:
		e, ok := ref.m[o.k]
		c.settledRearmed = c.settledRearmed || ok && e.armed != e.sent
		if ok {
			left(o.k)
		}
	case opTrack, opTrackResend:
		c.retracked = c.retracked || c.gone[o.k]
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
	name string
	ops  []op
}{
	{"sweep and drain walk in key order, not map order", func() []op {
		keys := ascending(64)
		rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		var ops []op
		for _, k := range keys {
			ops = append(ops, op{opTrackResend, k, 0})
		}
		ops = append(ops, op{opSweep, Key{}, 101}, op{opSweep, Key{}, 202})
		for _, k := range keys {
			ops = append(ops, op{opTrackResend, k, 300})
		}
		return append(ops, op{opDrain, Key{}, 300})
	}()},
	{"first expiry resends with a fresh window, second times out", []op{
		{opTrackResend, Key{Seq: 1}, 0}, {opSweep, Key{}, 100}, {opSweep, Key{}, 150},
		{opSweep, Key{}, 240}, {opSweep, Key{}, 260},
	}},
	{"an empty table is usable before the first Track", []op{
		{opSettle, Key{Seq: 1}, 0}, {opSweep, Key{}, 1000}, {opDrain, Key{}, 1000},
		{opLapse, Key{}, 1000}, {opSent, Key{Seq: 1}, 1000},
	}},
	{"no fallback path: first expiry times out", []op{
		{opTrack, Key{Seq: 1}, 0}, {opSweep, Key{}, 150},
	}},
	{"resendable is the entry's own: one table holds both kinds", []op{
		{opTrackResend, Key{Seq: 1}, 0}, {opTrack, Key{Seq: 2}, 0}, {opTrackResend, Key{Seq: 3}, 0},
		{opSweep, Key{}, 150}, {opTrack, Key{Seq: 3}, 160}, {opSweep, Key{}, 300},
	}},
	{"each slot lapses on its own window", []op{
		{opTrack, Key{Slot: 2, Seq: 1}, 0}, {opTrackResend, Key{Slot: 1, Seq: 2}, 0},
		{opTrack, Key{Slot: 0, Seq: 3}, 0}, {opLapse, Key{}, 0}, {opSweep, Key{}, 120},
		{opLapse, Key{}, 120}, {opSweep, Key{}, 160}, {opLapse, Key{}, 160},
		{opSweep, Key{}, 210}, {opLapse, Key{}, 210}, {opSweep, Key{}, 320},
	}},
	{"settle after fallback counts once, from the resend", []op{
		{opTrackResend, Key{Seq: 1}, 0}, {opSweep, Key{}, 150}, {opSettle, Key{Seq: 1}, 170},
		{opSettle, Key{Seq: 1}, 180}, {opSweep, Key{}, 1000},
	}},
	{"settle reports latency from the send; unknown keys do not settle", []op{
		{opTrackResend, Key{Seq: 1}, 0}, {opSettle, Key{Seq: 1}, 30}, {opSettle, Key{Seq: 2}, 30},
	}},
	{"abandoned heartbeat stays for the fallback sweep", []op{
		// A frame that never reached the wire leaves its entry as it was.
		{opTrackResend, Key{Seq: 1}, 0}, {opSweep, Key{}, 150},
	}},
	{"sent survives the re-arm; oldest follows the open windows", []op{
		{opLapse, Key{}, 0}, {opTrackResend, Key{Seq: 1}, 0}, {opTrackResend, Key{Seq: 2}, 40},
		{opLapse, Key{}, 40}, {opSweep, Key{}, 120}, {opLapse, Key{}, 120},
		{opSent, Key{Seq: 1}, 120}, {opSettle, Key{Seq: 1}, 120}, {opSent, Key{Seq: 1}, 120},
	}},
	{"an inline seq newer than its slot's overflow still walks last", []op{
		{opTrackResend, Key{Slot: 2, Seq: 1}, 0}, {opTrackResend, Key{Slot: 2, Seq: 2}, 0},
		{opTrackResend, Key{Slot: 0, Seq: 9}, 0}, {opSettle, Key{Slot: 2, Seq: 1}, 10},
		{opTrackResend, Key{Slot: 2, Seq: 3}, 10}, {opSweep, Key{}, 300}, {opDrain, Key{}, 300},
	}},
}

// randomOp draws the next call from the reference's state: fresh seqs per
// slot, settles that mostly hit a heartbeat in flight, and keys that were
// issued before (settled, written off or still pending) tracked again.
// track is the kind of Track the sequence draws.
func randomOp(rng *rand.Rand, ref *refPending, issued []uint64, ms int, track func() opKind) op {
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
	case r < 38:
		issued[s]++
		return op{track(), Key{Slot: s, Seq: issued[s]}, ms}
	case r < 44:
		return op{track(), old(), ms}
	case r < 62:
		return op{opSettle, inFlight(), ms}
	case r < 67:
		return op{opSettle, old(), ms}
	case r < 78:
		return op{opSweep, Key{}, ms}
	case r < 79:
		return op{opDrain, Key{}, ms}
	case r < 86:
		return op{opLapse, Key{}, ms}
	case r < 94:
		return op{opSent, inFlight(), ms}
	}
	return op{opLen, Key{}, ms}
}

// TestPending drives the slot table and the map-keyed reference with the
// hand-written scripts and with seeded random call sequences over four
// slots, each on its own window, tracking every heartbeat resendable, none,
// or a mix, and requires identical answers from every call: resend, lost
// and drain lists, latencies, lapse and send instants and ok results.
func TestPending(t *testing.T) {
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			w := newTwin(t, nil)
			for _, o := range sc.ops {
				w.do(o)
			}
		})
	}
	t.Run("a sweep at the lapse instant takes the entry", func(t *testing.T) {
		// Tracked at 1 000 ns on a 50 ns window, a heartbeat lapses at
		// 1 050 ns: an owner that arms a timer at Lapse and sweeps when it
		// fires must find it there, not one sweep later.
		w := func(int) time.Duration { return 50 }
		k := Key{Seq: 1}
		for _, p := range []table{&Pending{}, &refPending{}} {
			p.Track(k, time.Unix(0, 1000), true)
			for _, want := range []struct {
				lapse        int64
				resend, lost []Key
				len          int
			}{
				{lapse: 1050, resend: []Key{k}, len: 1}, // falls back, re-armed at 1 050 ns
				{lapse: 1100, lost: []Key{k}},           // then times out
			} {
				at, ok := p.Lapse(w)
				if !ok || at.UnixNano() != want.lapse {
					t.Fatalf("%T: Lapse = %d %v, want %d", p, at.UnixNano(), ok, want.lapse)
				}
				resend, lost := p.Sweep(at, w, nil, nil)
				if !slices.Equal(resend, want.resend) || !slices.Equal(lost, want.lost) || p.Len() != want.len {
					t.Fatalf("%T: Sweep(%d) = resend %v lost %v len %d, want %v %v %d",
						p, want.lapse, resend, lost, p.Len(), want.resend, want.lost, want.len)
				}
			}
		}
	})
	t.Run("seeded random call sequences", func(t *testing.T) {
		var cov coverage
		for seed := int64(1); seed <= 40; seed++ {
			for _, mode := range []string{"resend", "none", "mixed"} {
				w := newTwin(t, &cov)
				rng := rand.New(rand.NewSource(seed))
				track := func() opKind {
					if mode == "resend" || mode == "mixed" && rng.Intn(2) == 0 {
						return opTrackResend
					}
					return opTrack
				}
				issued := make([]uint64, 4)
				ms := 0
				for i := 0; i < 600; i++ {
					ms += rng.Intn(8)
					w.do(randomOp(rng, w.ref, issued, ms, track))
				}
			}
		}
		if cov.maxPerSlot < 4 || !cov.inlineNewer || !cov.resent || !cov.lostFirst || !cov.lostResent ||
			!cov.ownWindow || !cov.settledRearmed || !cov.retracked {
			t.Fatalf("random sequences missed a case: %+v", cov)
		}
	})
}

// TestPendingTrackSettleZeroAllocs pins the hot path every owner runs per
// heartbeat: on a warm table, Track and Settle touch the slot in place.
func TestPendingTrackSettleZeroAllocs(t *testing.T) {
	const slots = 1024
	var p Pending
	now := time.Unix(1000, 0)
	for i := 0; i < slots; i++ {
		p.Track(Key{Slot: i, Seq: 1}, now, true)
		p.Settle(Key{Slot: i, Seq: 1}, now)
	}
	seq := uint64(1)
	allocs := testing.AllocsPerRun(20, func() {
		seq++
		for i := 0; i < slots; i++ {
			p.Track(Key{Slot: i, Seq: seq}, now, true)
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

// TestPendingReserve pins Reserve: it keeps what is in flight, never
// shrinks the table, and tracking on every reserved slot afterwards
// allocates nothing.
func TestPendingReserve(t *testing.T) {
	const slots = 1024
	var p Pending
	now := time.Unix(1000, 0)
	p.Track(Key{Slot: 2, Seq: 7}, now, true)
	p.Reserve(slots)
	p.Reserve(16)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range slots {
		if i != 2 { // a second heartbeat on slot 2 would go to the overflow
			p.Track(Key{Slot: i, Seq: 8}, now, false)
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("tracking %d reserved slots allocated %d times, want 0", slots, n)
	}
	if _, ok := p.Settle(Key{Slot: 2, Seq: 7}, now); !ok || p.Len() != slots-1 {
		t.Fatalf("after Reserve: the entry tracked before settled %v, %d in flight, want true and %d", ok, p.Len(), slots-1)
	}
}
