package loadgen

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/faultnet"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/hbproto/hbprototest"
	"d2dhb/internal/inflight"
	"d2dhb/internal/telemetry"
)

// newTestTrunk builds a trunk of n users paced over slots sub-ticks (0:
// unpaced) aimed at the one server at addr by hand, the way buildTrunks
// does, so a test can drive its rounds one at a time.
func newTestTrunk(tb testing.TB, addr string, n, slots int, dial func(network, addr string) (net.Conn, error)) *trunk {
	tb.Helper()
	cl, err := cluster.NewSingleNodeClient(addr)
	if err != nil {
		tb.Fatal(err)
	}
	r := &Runner{cfg: Config{Net: faultnet.OS{}}, cluster: cl, ackTimeout: time.Second}
	t := r.newTrunk("loadtrunk-test", time.Second, []tprofile{{app: "fast", expiry: time.Minute, pad: 54}}, fleetIDs(0, n, 7), make([]int32, n), slots)
	t.up.Dial = dial
	return t
}

// ackServer is a stand-in presence server on nw that acknowledges every
// batch on its own connection, in the connection's version: the frame by
// its CRC in v2, the batch's refs in v1.
func ackServer(t *testing.T, nw faultnet.Net) string {
	t.Helper()
	ln, err := nw.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				fr := hbproto.NewFrameReader(conn)
				for {
					msg, err := fr.Next()
					if err != nil {
						return
					}
					b, ok := msg.(*hbproto.Batch)
					if !ok {
						continue
					}
					ack := &hbproto.Ack{Frames: []uint32{fr.Sum()}}
					if fr.Version() == hbproto.Version {
						ack.Frames = nil
						for _, hb := range b.HBs {
							ack.Refs = append(ack.Refs, hbproto.Ref{Src: hb.Src, Seq: hb.Seq})
						}
					}
					if err := hbprototest.WriteFrameV(conn, fr.Version(), ack); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// armedConn writes through its fault-injecting twin once armed.
type armedConn struct {
	net.Conn
	faulty net.Conn
	armed  *atomic.Bool
}

func (c *armedConn) Write(b []byte) (int, error) {
	if c.armed.Load() {
		return c.faulty.Write(b)
	}
	return c.Conn.Write(b)
}

// waitSettled waits until every heartbeat of tr is settled. The trunk
// tests drive a trunk by hand, never waiting on its timers, so in the
// bubble nothing moves the clock from the start.
func waitSettled(t *testing.T, tr *trunk, what string) {
	t.Helper()
	await(t, 0, func() bool { return tr.InFlight() == 0 }, what+": heartbeats never settled")
}

// TestTrunkRedialSettlesEveryAck kills a trunk's connection with an
// injected reset and lets it redial. The batch the reset lost was recorded
// in the first connection's ack ring: the acks on the second connection
// must settle what was written on that one, its resend and the next round,
// against a ring of its own. Users send distinct sequence numbers so a wrong
// heartbeat cannot settle by coincidence.
func TestTrunkRedialSettlesEveryAck(t *testing.T) {
	timed(t, func(t *testing.T, nw faultnet.Net) {
		const users = 9
		addr := ackServer(t, nw)
		// Every write through faults is reset; the first connection starts
		// writing through it once the test arms it, the redial never does.
		faults := faultnet.NewSchedule(1, []faultnet.Window{{
			Fault: faultnet.Fault{Kind: faultnet.KindReset, Prob: 1},
		}})
		var dials atomic.Int32
		var armed atomic.Bool
		tr := newTestTrunk(t, addr, users, 0, func(network, addr string) (net.Conn, error) {
			conn, err := nw.Dial(network, addr)
			if err == nil && dials.Add(1) == 1 {
				conn = &armedConn{Conn: conn, faulty: faults.WrapConn(conn), armed: &armed}
			}
			return conn, err
		})
		t.Cleanup(tr.Shutdown)
		for i := range tr.users {
			tr.users[i].seq = uint64(i) * 100
		}

		tr.tickSlot(0)
		waitSettled(t, tr, "first connection")
		armed.Store(true)
		tr.tickSlot(0) // the write dies with the connection; the round stays pending
		if got := tr.c.writeErrors.Load(); got != 1 {
			t.Fatalf("write errors = %d, want the one injected reset", got)
		}
		if got := tr.InFlight(); got != users {
			t.Fatalf("%d heartbeats pending after the reset, want %d", got, users)
		}
		tr.Sweep(time.Now().Add(2 * tr.timeout)) // fallback re-send over a fresh dial
		waitSettled(t, tr, "redialed connection, resend")
		tr.tickSlot(0)
		waitSettled(t, tr, "redialed connection, next round")

		if got := dials.Load(); got != 2 {
			t.Fatalf("dials = %d, want 2", got)
		}
		if got, want := tr.c.ackedRelayed.Load(), uint64(3*users); got != want {
			t.Errorf("acked %d heartbeats, want %d", got, want)
		}
		if got := tr.c.outOfOrderAcks.Load(); got != 0 {
			t.Errorf("%d acks settled out of order", got)
		}
		if got := tr.c.timeoutRelayed.Load(); got != 0 {
			t.Errorf("%d heartbeats timed out", got)
		}
		for i, u := range tr.users {
			if u.last != u.seq || u.seq != uint64(i)*100+3 {
				t.Errorf("user %d: last ack %d, last sent %d, want both %d", i, u.last, u.seq, i*100+3)
			}
		}
	})
}

// TestTrunkBacksOffDeadShard aims a paced trunk at a shard that refuses
// every dial: over one period of 32 sub-ticks it dials O(log) times, not
// once per sub-tick — the k-th redial waits at least the 50 ms base ×
// (2^k − 1) / 2 — and every heartbeat still ends exactly once, timed out
// after its fallback resend misses too.
func TestTrunkBacksOffDeadShard(t *testing.T) {
	const users, slots = 64, 32
	var dials atomic.Int32
	tr := newTestTrunk(t, "dead", users, slots, func(string, string) (net.Conn, error) {
		dials.Add(1)
		return nil, errors.New("refused")
	})
	t.Cleanup(tr.Shutdown)
	start := time.Now()
	for s := range slots {
		lo, hi := tr.paced(s)
		tr.emit(lo, hi, start.Add(time.Duration(s)*tr.period/slots), nil)
	}
	if got := dials.Load(); got > 6 {
		t.Errorf("%d dials over one period of %d sub-ticks, want at most 6", got, slots)
	}
	if got := tr.c.dialErrors.Load(); got != slots {
		t.Errorf("%d sends reported unreachable, want all %d", got, slots)
	}
	// The fallback resend misses as well; the second lapse writes it off.
	tr.Sweep(start.Add(tr.period + 2*tr.timeout))
	tr.Sweep(start.Add(tr.period + 4*tr.timeout))
	if n := tr.InFlight(); n != 0 {
		t.Fatalf("%d heartbeats still pending", n)
	}
	if got := tr.c.timeoutRelayed.Load(); got != users || tr.c.ackedRelayed.Load() != 0 || tr.c.fallbackResends.Load() != 0 {
		t.Fatalf("%d timed out, %d acked, %d resent, want all %d timed out once", got, tr.c.ackedRelayed.Load(), tr.c.fallbackResends.Load(), users)
	}
}

// TestTrunkAcksSettleByHandle feeds onRefs the refs an uplink hands back,
// each with the handle the trunk's send gave its heartbeat, the user index
// + 1: runs of users, a jump back, a straggler of an earlier ack after a
// later one, a user acknowledged twice, and refs whose handle is no user of
// the trunk (0, or past the users). Each ref settles its own user exactly
// once, with its latency recorded once, or is ignored, whatever its Src
// says. Users send distinct sequence numbers so a wrong user cannot settle
// by coincidence, and at one of three instants, so an ack's latencies come
// in runs of equal values.
func TestTrunkAcksSettleByHandle(t *testing.T) {
	const users = 20
	tr := newTestTrunk(t, "unused", users, 0, nil)
	hist := telemetry.NewHistogram(1)
	tr.rec = hist.Recorder()
	id := tr.ids.at
	now := time.Now()
	latency := func(u int) uint64 { return uint64(1+u/3%3) * 1000 } // µs
	for i := range users {
		tr.users[i].seq = uint64(i)*100 + 1
		tr.pending.Track(inflight.Key{Slot: i, Seq: tr.users[i].seq}, now.Add(-time.Duration(latency(i))*time.Microsecond), true)
	}
	deliver := func(us ...int) {
		t.Helper()
		// Strangers first: no handle, and a handle past the users, each
		// under a user's ID and seq.
		refs := []hbproto.Ref{{Src: id(9), Seq: tr.users[9].seq}, {Src: id(10), Seq: tr.users[10].seq, Handle: users + 1}}
		for _, u := range us {
			refs = append(refs, hbproto.Ref{Src: id(u), Seq: tr.users[u].seq, Handle: hbproto.Handle(u + 1)})
		}
		tr.onRefs(refs, now)
		for _, u := range us {
			if tr.users[u].last != tr.users[u].seq {
				t.Fatalf("user %d not settled by its ref", u)
			}
		}
	}
	deliver(0, 1, 2, 5)
	deliver(2, 4, 6, 7) // user 2 again: ignored, already settled
	deliver(3, 19)      // an earlier ack's straggler
	deliver(17, 8)
	if tr.users[9].last != 0 || tr.users[10].last != 0 {
		t.Fatal("a ref with no user's handle settled a user")
	}
	// 11 distinct users, user 2 counted once.
	settled := []int{0, 1, 2, 5, 4, 6, 7, 3, 19, 17, 8}
	if got, want := tr.c.ackedRelayed.Load(), uint64(len(settled)); got != want || tr.c.outOfOrderAcks.Load() != 0 {
		t.Fatalf("acked %d refs (%d out of order), want %d in order", got, tr.c.outOfOrderAcks.Load(), want)
	}
	if got := tr.pending.Len(); got != users-len(settled) {
		t.Fatalf("%d pending, want %d", got, users-len(settled))
	}
	var sum uint64
	for _, u := range settled {
		sum += latency(u)
	}
	mean := float64(sum) / float64(len(settled))
	if s := hist.Snapshot(); s.Count() != uint64(len(settled)) || s.Mean() != mean || s.Max() != 3000 {
		t.Fatalf("latencies: %d recorded, mean %v, max %d; want %d, mean %v, max 3000", s.Count(), s.Mean(), s.Max(), len(settled), mean)
	}
}

// TestTrunkPaceBlocks pins the pace partition: sub-tick s of S is the s-th
// of S index blocks, so the sub-ticks cover every user once, in ascending
// order, with sizes that differ by at most one.
func TestTrunkPaceBlocks(t *testing.T) {
	r := &Runner{cfg: Config{Net: faultnet.OS{}}}
	for _, n := range []int{1, 31, 32, 1_000, 100_000} {
		ids := fleetIDs(0, n, 7)
		for _, slots := range []int{1, 2, 32, 2_700} {
			if slots > n {
				continue // buildTrunks clamps the slot count to the users
			}
			tr := r.newTrunk("loadtrunk-0000", time.Second, []tprofile{{}}, ids, make([]int32, n), slots)
			next, smallest, largest := 0, n, 0
			for s := range slots {
				lo, hi := tr.paced(s)
				if lo != next || hi < lo {
					t.Fatalf("%d/%d: slot %d is users [%d, %d), want it to start at %d", n, slots, s, lo, hi, next)
				}
				next, smallest, largest = hi, min(smallest, hi-lo), max(largest, hi-lo)
			}
			if next != n || largest-smallest > 1 {
				t.Fatalf("%d/%d: slots cover %d users, sizes %d to %d", n, slots, next, smallest, largest)
			}
		}
	}
}

// TestTrunkBuildFootprint pins what naming and pacing cost per user: one
// 100k-user trunk of live_trunked's shape built through buildTrunks, in
// bytes allocated and in allocations. Pointer-free columns come to ~34
// B/user in a handful of allocations (~38 with a profile index per user
// of a one-profile trunk); a string header per user, an ID
// index (the one that resolved v1 acks read ~52.6) or a per-user pace
// partition do not fit under the ceilings.
func TestTrunkBuildFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the trunk's footprint")
	}
	const bytesCeiling, allocsCeiling = 44, 0.001 // per user
	r := trunkedRunner(t, trunkedUsers, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.buildTrunks()
	runtime.ReadMemStats(&after)
	size := float64(after.TotalAlloc-before.TotalAlloc) / trunkedUsers
	allocs := float64(after.Mallocs-before.Mallocs) / trunkedUsers
	t.Logf("trunk build: %.1f B/user in %.5f allocs/user", size, allocs)
	if size > bytesCeiling {
		t.Errorf("trunk build allocates %.1f B/user, ceiling %d", size, bytesCeiling)
	}
	if allocs > allocsCeiling {
		t.Errorf("trunk build makes %.5f allocs/user, ceiling %g", allocs, allocsCeiling)
	}
	if tr := r.units[0].(*trunk); tr.paceSlots != trunkedSlots {
		t.Fatalf("built trunk has %d pace slots, want %d", tr.paceSlots, trunkedSlots)
	}
}

// TestTrunkPendingGrowthInPlace pins what a trunk's in-flight table holds:
// the span of users in flight, not every user. Over a 100k-user trunk of 32
// pace slots whose acks for each sub-tick arrive once the next sub-tick
// is sent, a warm period tracks every user without allocating and holds at
// most two sub-ticks' places. A shard that holds every ack for a whole
// period grows the table to at most one place per user, as many as the
// table sized for every user in Begin held, and a second such stall
// allocates nothing. The live stack's steady state runs no GC, so any
// array the table grew out of would stay in its peak.
func TestTrunkPendingGrowthInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the trunk's")
	}
	tr := newTestTrunk(t, "127.0.0.1:1", trunkedUsers, trunkedSlots, nil) // never dials
	t.Cleanup(tr.Shutdown)
	now := time.Now()
	places := func() int {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return tr.pending.Places()
	}
	var refs []hbproto.Ref
	// acks settles pace slot s's heartbeats as the uplink hands their
	// refs back, and track tracks them as offer does.
	acks := func(s int, seq uint64) {
		lo, hi := tr.paced(s)
		refs = refs[:0]
		for u := lo; u < hi; u++ {
			refs = append(refs, hbproto.Ref{Seq: seq, Handle: hbproto.Handle(u + 1)})
		}
		tr.onRefs(refs, now)
	}
	track := func(s int, seq uint64) {
		lo, hi := tr.paced(s)
		tr.mu.Lock()
		for u := lo; u < hi; u++ {
			tr.pending.Track(inflight.Key{Slot: u, Seq: seq}, now, true)
		}
		tr.mu.Unlock()
	}
	// period tracks heartbeat seq for every pace slot in turn, settling
	// each slot's once the next slot's are tracked unless the shard
	// stalls, and returns how often tracking allocated and the most places
	// the table held. Each window starts after a collection, as in
	// testing.AllocsPerRun: a GC cycle that starts inside one allocates
	// too, and the arrays a stall grew out of start one.
	period := func(seq uint64, stall bool) (mallocs uint64, most int) {
		var ms runtime.MemStats
		for s := range trunkedSlots {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			track(s, seq)
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - before
			if !stall && s > 0 {
				acks(s-1, seq)
			}
			most = max(most, places())
		}
		if !stall {
			acks(trunkedSlots-1, seq)
		}
		return mallocs, most
	}
	subTick := (trunkedUsers + trunkedSlots - 1) / trunkedSlots
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // nothing allocates beside the loop, as in testing.AllocsPerRun
	period(1, false)
	mallocs, most := period(2, false)
	t.Logf("a warm period holds at most %d places (%d KB) for %d users, %d per sub-tick", most, most*32/1000, trunkedUsers, subTick)
	if mallocs != 0 || most > 2*subTick {
		t.Errorf("a warm period allocated %d times tracking and held %d places, want 0 and at most %d", mallocs, most, 2*subTick)
	}
	if _, most = period(3, true); most > trunkedUsers {
		t.Errorf("a stalled period grew the table to %d places for %d users", most, trunkedUsers)
	}
	t.Logf("a stalled period holds %d places", most)
	for s := range trunkedSlots {
		acks(s, 3)
	}
	if mallocs, _ = period(4, true); mallocs != 0 {
		t.Errorf("a second stalled period allocated %d times tracking, want 0", mallocs)
	}
	if n := tr.InFlight(); n != trunkedUsers {
		t.Fatalf("%d heartbeats in flight, want %d", n, trunkedUsers)
	}
}

func TestFleetIDs(t *testing.T) {
	for _, width := range []int{5, 7} {
		for _, first := range []int{0, 95, 99_995, 999_990, 9_999_995} {
			ids := fleetIDs(first, 12, width)
			for i := range ids.ends {
				if id, want := ids.at(i), fmt.Sprintf("loadue-%0*d", width, first+i); id != want {
					t.Fatalf("fleetIDs(%d, 12, %d)[%d] = %q, want %q", first, width, i, id, want)
				}
			}
		}
	}
	if ids := fleetIDs(5, 0, 7); len(ids.ends) != 0 {
		t.Fatalf("zero users named %v", ids)
	}
}

// TestTrunkedRunResolvesIDsByHandle is the outside view of the identity
// path: a steady trunked fleet sends the same users in the same order every
// period, so by the end of a run of several dozen periods the server's
// connections must have resolved nearly every heartbeat's source to its
// presence row by the successor guess, without hashing it.
func TestTrunkedRunResolvesIDsByHandle(t *testing.T) {
	r, err := New(Config{
		UEs:      240,
		Trunks:   2,
		Profiles: []hbmsg.AppProfile{fastProfile(25 * time.Millisecond)},
		Duration: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeouts != 0 || rep.AckedRelayed == 0 || rep.Server == nil {
		t.Fatalf("not a clean trunked run: %+v", rep)
	}
	st := rep.Server
	// Every delivered heartbeat's source was resolved once, so the counters
	// cannot both sit at zero (a 0/0 share is NaN, which no bound rejects).
	if st.HeartbeatsRelayed == 0 || st.IDGuessHits+st.IDGuessMisses != st.HeartbeatsRelayed {
		t.Fatalf("the table resolved %d+%d sources, server delivered %d", st.IDGuessHits, st.IDGuessMisses, st.HeartbeatsRelayed)
	}
	if got := float64(st.IDGuessHits) / float64(st.HeartbeatsRelayed); got < 0.95 {
		t.Errorf("successor guess hit share = %.3f (%d/%d), want >= 0.95", got, st.IDGuessHits, st.IDGuessMisses)
	}
}
