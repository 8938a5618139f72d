package inflight

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"
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
// up to slot 3, and then the same again from every fourth slot, so the
// slots of one table lapse at different instants.
func window(slot int) time.Duration {
	return 100*time.Millisecond + time.Duration(slot%4)*50*time.Millisecond
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
	w.cov.before(w.ref, w.got, o)
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
	wrapped        bool         // a place held a slot past the places' number
	unsortedWalk   bool         // a sweep found lapsed entries in places out of slot order
	grewMoving     bool         // the places grew and moved a heartbeat to another place
	grewRearmed    bool         // the places grew while one held a heartbeat that had fallen back
	overBeside     bool         // an overflow heartbeat's place held another slot's
	evicted        bool         // a Track moved another slot's heartbeat from its place to the overflow
	gone           map[Key]bool // keys that left the table
	places         []place      // the slot table's places before the call
}

// before notes what o is about to exercise, read off the reference and
// the slot table's places.
func (c *coverage) before(ref *refPending, got *Pending, o op) {
	if c == nil {
		return
	}
	c.places = append(c.places[:0], got.places...)
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
		var walk []Key // the lapsed entries in place order
		for _, s := range got.places {
			if s.used && s.armed+int64(window(int(s.slot))) <= n {
				walk = append(walk, s.key())
			}
		}
		c.unsortedWalk = c.unsortedWalk || !slices.IsSortedFunc(walk, Key.compare)
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

// after notes how deep the slot table's storage went, and what a growth
// did to the places the call found.
func (c *coverage) after(p *Pending) {
	if c == nil {
		return
	}
	perSlot := map[int]int{}
	for i, s := range p.places {
		if s.used {
			perSlot[int(s.slot)]++
			c.wrapped = c.wrapped || int(s.slot) != i
		}
	}
	for k := range p.over {
		perSlot[k.Slot]++
		if s := p.at(k.Slot); s != nil && s.used {
			c.inlineNewer = c.inlineNewer || int(s.slot) == k.Slot && s.seq > k.Seq
			c.overBeside = c.overBeside || int(s.slot) != k.Slot
		}
	}
	for _, n := range perSlot {
		c.maxPerSlot = max(c.maxPerSlot, n)
	}
	for _, s := range c.places {
		if _, over := p.over[s.key()]; s.used && over {
			c.evicted = true
		}
	}
	if len(p.places) != len(c.places) {
		for i, s := range c.places {
			c.grewMoving = c.grewMoving || s.used && int(s.slot)%len(p.places) != i
			c.grewRearmed = c.grewRearmed || s.used && s.armed != s.sent
		}
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
	{"sweep and drain walk in slot order, not place order", []op{
		// Four places: slot 5 takes place 1, slot 2 place 2 and slot 4
		// place 0, so the places hold 4, 5, 2 and the walk must sort.
		{opTrack, Key{Slot: 3, Seq: 1}, 0}, {opSettle, Key{Slot: 3, Seq: 1}, 1},
		{opTrackResend, Key{Slot: 5, Seq: 1}, 2}, {opTrackResend, Key{Slot: 2, Seq: 1}, 2},
		{opTrackResend, Key{Slot: 4, Seq: 1}, 2}, {opSweep, Key{}, 1000},
		{opTrack, Key{Slot: 7, Seq: 1}, 1000}, {opSettle, Key{Slot: 5, Seq: 1}, 1000}, {opDrain, Key{}, 1000},
	}},
	{"a growth moves wrapped heartbeats to their own places", []op{
		{opTrackResend, Key{Slot: 1, Seq: 1}, 0}, {opSettle, Key{Slot: 1, Seq: 1}, 0},
		{opTrackResend, Key{Slot: 0, Seq: 1}, 0}, {opTrackResend, Key{Slot: 3, Seq: 1}, 0},
		{opTrackResend, Key{Slot: 3, Seq: 2}, 0}, {opSweep, Key{}, 100}, {opTrackResend, Key{Slot: 2, Seq: 1}, 120},
		{opTrackResend, Key{Slot: 7, Seq: 1}, 130}, {opLapse, Key{}, 130}, {opSweep, Key{}, 300},
		{opSettle, Key{Slot: 3, Seq: 2}, 300}, {opDrain, Key{}, 300},
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
// track is the kind of Track the sequence draws, slot the slot of its call.
func randomOp(rng *rand.Rand, ref *refPending, issued []uint64, ms int, track func() opKind, slot func() int) op {
	s := slot()
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
	// random runs seeded call sequences, tracking every heartbeat
	// resendable, none, or a mix, with slot drawing each call's slot from
	// [0, slots) given the call's index.
	random := func(t *testing.T, cov *coverage, slots int, slot func(rng *rand.Rand, i int) int) {
		for seed := int64(1); seed <= 40; seed++ {
			for _, mode := range []string{"resend", "none", "mixed"} {
				w := newTwin(t, cov)
				rng := rand.New(rand.NewSource(seed))
				track := func() opKind {
					if mode == "resend" || mode == "mixed" && rng.Intn(2) == 0 {
						return opTrackResend
					}
					return opTrack
				}
				issued := make([]uint64, slots)
				ms := 0
				for i := 0; i < 600; i++ {
					ms += rng.Intn(8)
					w.do(randomOp(rng, w.ref, issued, ms, track, func() int { return slot(rng, i) }))
				}
			}
		}
	}
	t.Run("seeded random call sequences", func(t *testing.T) {
		var cov coverage
		random(t, &cov, 4, func(rng *rand.Rand, _ int) int { return rng.Intn(4) })
		if cov.maxPerSlot < 4 || !cov.inlineNewer || !cov.resent || !cov.lostFirst || !cov.lostResent ||
			!cov.ownWindow || !cov.settledRearmed || !cov.retracked {
			t.Fatalf("random sequences missed a case: %+v", cov)
		}
	})
	t.Run("seeded random call sequences over many slots and few places", func(t *testing.T) {
		// Calls draw from six slots at a time, a window that moves up one
		// slot every eight calls over 200 slots and starts again at 0, as a
		// trunk's pace slots do over its users: the places stay a handful
		// while the slots wrap around them many times, collide, grow,
		// and sit beside overflow heartbeats of other slots.
		const span, slots = 6, 200
		var cov coverage
		random(t, &cov, slots+span, func(rng *rand.Rand, i int) int { return i/8%slots + rng.Intn(span) })
		if !cov.wrapped || !cov.unsortedWalk || !cov.grewMoving || !cov.grewRearmed || !cov.overBeside ||
			!cov.evicted || cov.maxPerSlot < 2 || !cov.resent || !cov.lostResent || !cov.retracked {
			t.Fatalf("random sequences missed a case: %+v", cov)
		}
	})
}

// TestPendingTrackSettleZeroAllocs pins the hot path every owner runs per
// heartbeat: on a warm table, Track and Settle touch the place in place.
func TestPendingTrackSettleZeroAllocs(t *testing.T) {
	const slots = 1024
	var p Pending
	now := time.Unix(1000, 0)
	for i := 0; i < slots; i++ {
		p.Track(Key{Slot: i, Seq: 1}, now, true)
	}
	for i := 0; i < slots; i++ {
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

// TestPendingGrowth pins what the table holds: as many places as the span
// of slots in flight, grown by doubling on a collision and never past the
// highest slot tracked plus one, fewer than four per heartbeat in flight
// when one round stays stuck, an entry and the table no larger than
// before, and nothing allocated once the places cover what is in flight.
func TestPendingGrowth(t *testing.T) {
	if s, e := unsafe.Sizeof(place{}), unsafe.Sizeof(Pending{}); s != 32 || e != 40 {
		t.Fatalf("a place is %d B and a table %d B, want 32 and 40", s, e)
	}
	now := time.Unix(1000, 0)
	// mallocs counts what f allocates, on one P after a collection, as
	// testing.AllocsPerRun does, so no other goroutine allocates beside it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	// rounds tracks slots [lo, lo+n) for each lo of los, settling each
	// round once the next one is tracked, as a paced owner whose acks take
	// a round does, and returns the most places the table held.
	rounds := func(p *Pending, n int, los ...int) int {
		most, seq := 0, uint64(1)
		for r, lo := range los {
			for i := lo; i < lo+n; i++ {
				p.Track(Key{Slot: i, Seq: seq}, now, true)
			}
			if r > 0 {
				for i := los[r-1]; i < los[r-1]+n; i++ {
					if _, ok := p.Settle(Key{Slot: i, Seq: seq}, now); !ok {
						t.Fatalf("slot %d did not settle", i)
					}
				}
			}
			most = max(most, len(p.places))
		}
		return most
	}

	const n = 1000
	var p Pending
	if most := rounds(&p, n, 0, n, 2*n, 3*n); most != 2*n {
		t.Fatalf("rounds of %d slots with one round's acks outstanding held %d places, want %d", n, most, 2*n)
	}
	var los []int // from the round still in flight on
	for lo := 3 * n; lo < 100*n; lo += n {
		los = append(los, lo)
	}
	if got := mallocs(func() { rounds(&p, n, los...) }); got != 0 || len(p.places) != 2*n {
		t.Errorf("97 more rounds over slots up to %d allocated %d times and left %d places, want 0 and %d", 100*n, got, len(p.places), 2*n)
	}
	p.Drain()

	// A stuck round: one round's heartbeats stay in flight (their acks
	// lost) while 97 more rounds wrap past them. Growth is only for a
	// table whose places number fewer than twice what is in flight, so the
	// places stay under four times the most in flight — a round, the one
	// before it and the stuck one — where doubling took them to one per
	// slot; the stuck round moves to the overflow, and once it is there
	// the rounds allocate nothing.
	var s Pending
	rounds(&s, n, 0, n, 2*n, 3*n) // 3n never settles
	los = los[:0]
	for lo := 4 * n; lo <= 100*n; lo += n {
		los = append(los, lo)
	}
	if most := rounds(&s, n, los[:len(los)/2]...); most >= 4*3*n {
		t.Errorf("rounds past a stuck round held %d places, want fewer than %d", most, 4*3*n)
	}
	if got := mallocs(func() { rounds(&s, n, los[len(los)/2-1:]...) }); got != 0 || s.Places() >= 4*3*n {
		t.Errorf("the later rounds past a stuck round allocated %d times and left %d places, want 0 and fewer than %d", got, s.Places(), 4*3*n)
	}
	if s.Len() != 2*n || len(s.over) != n {
		t.Errorf("after the rounds past a stuck round, %d in flight and %d in the overflow, want %d and %d", s.Len(), len(s.over), 2*n, n)
	}
	t.Logf("97 rounds of %d slots past a stuck round: %d places, %d in flight, %d in the overflow", n, s.Places(), s.Len(), len(s.over))

	// A stall: every slot of a 10 000-slot owner in flight at once grows
	// the places to exactly that, and a second stall allocates nothing.
	const all = 10 * n
	var q Pending
	q.Track(Key{Slot: 0, Seq: 1}, now, true)
	for i := 1; i < all; i++ {
		q.Track(Key{Slot: i, Seq: 1}, now, true)
	}
	if len(q.places) != all || q.Len() != all {
		t.Fatalf("a stall over %d slots left %d places holding %d, want %d of each", all, len(q.places), q.Len(), all)
	}
	for i := range all {
		q.Settle(Key{Slot: i, Seq: 1}, now)
	}
	if got := mallocs(func() {
		for i := range all {
			q.Track(Key{Slot: i, Seq: 2}, now, true)
		}
	}); got != 0 {
		t.Errorf("a second stall over %d slots allocated %d times, want 0", all, got)
	}

	// A collision with a slot past the places doubles them, and the
	// heartbeats that wrapped move to their own places.
	var w Pending
	w.Track(Key{Slot: 3, Seq: 1}, now, true) // four places
	w.Settle(Key{Slot: 3, Seq: 1}, now)
	for _, s := range []int{4, 5, 6, 7} {
		w.Track(Key{Slot: s, Seq: 1}, now, true)
	}
	w.Track(Key{Slot: 9, Seq: 1}, now, true) // place 1 holds 5: doubled
	if len(w.places) != 8 {
		t.Fatalf("a collision among four places grew them to %d, want 8", len(w.places))
	}
	for _, s := range []int{4, 5, 6, 7, 9} {
		if got := int(w.places[s%8].slot); got != s {
			t.Fatalf("slot %d is at place %d, which holds %d", s, s%8, got)
		}
	}
}
