package relaynet

// Chaos suite: drives the real server + relay agents + UE clients through
// scripted failure scenarios (relay crash mid-batch, server partition
// during flush, slow-loris links, corrupted frames, seeded random churn)
// and asserts the paper's Section IV-C invariants:
//
//   - zero lost heartbeats: every heartbeat generated while the system was
//     under fault is eventually delivered to the server, via the relay path
//     or the feedback-timeout cellular fallback;
//   - no duplicate feedback acks: each (device, seq) is confirmed to the UE
//     at most once;
//   - presence converges after the fault heals: every UE is online again;
//   - hbproto decode never panics on corrupted input (the server survives
//     and counts protocol errors instead of crashing).
//
// Fault timelines come from internal/faultnet and are seeded. Each test
// runs in a synctest bubble (clock_bubble_test.go) over a faultnet.Network
// at Table I's 270 s period and 300 s expiry, with every ack window the
// device rule's 305 s. The schedule is built inside the bubble, so its
// windows open on the bubble's clock, and a failing run replays from its
// seed with the same counts at the same instants.

import (
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"d2dhb/internal/faultnet"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/hbproto/hbprototest"
	"d2dhb/internal/session"
	"d2dhb/internal/trace"
)

// hbKey identifies one heartbeat in a trace.
type hbKey struct {
	src string
	seq uint64
}

// generatedSet returns every UE-generated heartbeat recorded so far.
func generatedSet(rec *trace.Recorder) map[hbKey]bool {
	out := make(map[hbKey]bool)
	for _, ev := range rec.ByKind(trace.KindGenerated) {
		out[hbKey{ev.Device, ev.Seq}] = true
	}
	return out
}

// deliveredSet returns every heartbeat the server observed.
func deliveredSet(rec *trace.Recorder) map[hbKey]bool {
	out := make(map[hbKey]bool)
	for _, ev := range rec.ByKind(trace.KindDelivery) {
		out[hbKey{ev.Device, ev.Seq}] = true
	}
	return out
}

// allDelivered snapshots the generated set — exactly generated heartbeats
// — and checks at the instant at that the server has seen every one of
// them: the zero-lost-heartbeats invariant. Heartbeats generated after the
// snapshot are not required.
func allDelivered(t *testing.T, rec *trace.Recorder, at time.Duration, generated int) {
	t.Helper()
	snapshot := generatedSet(rec)
	if len(snapshot) != generated {
		t.Fatalf("%d heartbeats generated, want exactly %d", len(snapshot), generated)
	}
	await(t, at, func() bool { return len(lost(rec, snapshot)) == 0 },
		"zero lost heartbeats (fallback fired for every unacked send)")
}

// lost returns the heartbeats of generated the server has not seen.
func lost(rec *trace.Recorder, generated map[hbKey]bool) []hbKey {
	delivered := deliveredSet(rec)
	var missing []hbKey
	for k := range generated {
		if !delivered[k] {
			missing = append(missing, k)
		}
	}
	return missing
}

// feedbackAcks returns the acks the relay's feedback gave, in emission
// order: server acks after a fallback may arrive out of order.
func feedbackAcks(rec *trace.Recorder) []trace.Event {
	var out []trace.Event
	for _, ev := range rec.ByKind(trace.KindAck) {
		if ev.Reason != trace.ReasonServerAck {
			out = append(out, ev)
		}
	}
	return out
}

// assertNoDuplicateAcks checks each (device, seq) was feedback-confirmed at
// most once: ack refs stay consistent even when faults force resends.
func assertNoDuplicateAcks(t *testing.T, rec *trace.Recorder) {
	t.Helper()
	seen := make(map[hbKey]int)
	for _, ev := range feedbackAcks(rec) {
		seen[hbKey{ev.Device, ev.Seq}]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("heartbeat %v feedback-acked %d times", k, n)
		}
	}
}

// assertMonotonicAcks checks that per-device feedback acks arrive in
// increasing sequence order: the relay forwards and confirms refs without
// reordering a device's heartbeat stream.
func assertMonotonicAcks(t *testing.T, rec *trace.Recorder) {
	t.Helper()
	last := make(map[string]uint64)
	for _, ev := range feedbackAcks(rec) {
		if prev, ok := last[ev.Device]; ok && ev.Seq <= prev {
			t.Errorf("device %s ack seq %d after %d (non-monotonic)", ev.Device, ev.Seq, prev)
		}
		last[ev.Device] = ev.Seq
	}
}

// assertFallbacks checks that exactly want heartbeats went out over the
// fallback path.
func assertFallbacks(t *testing.T, rec *trace.Recorder, want int, why string) {
	t.Helper()
	if n := len(rec.ByKind(trace.KindFallback)); n != want {
		t.Errorf("%d fallbacks, want exactly %d: %s", n, want, why)
	}
}

// startChaosServer starts a traced server on nw; idle > 0 reaps a
// connection silent for that long.
func startChaosServer(t *testing.T, nw network, rec *trace.Recorder, idle time.Duration) *Server {
	t.Helper()
	return startServer(t, nw, func(s *Server) {
		s.SetTracer(rec)
		s.SetIdleTimeout(idle)
	})
}

// startChaosRelay starts a traced relay of capacity 64 on nw, dialing the
// server through dial, shut down at cleanup.
func startChaosRelay(t *testing.T, nw network, rec *trace.Recorder, id, serverAddr string,
	period, expiry time.Duration, dial func(string, string) (net.Conn, error)) *RelayAgent {
	t.Helper()
	r, err := NewRelayAgent(RelayAgentConfig{
		ID: id, App: "std", Period: period, Expiry: expiry, Pad: 54, Capacity: 64,
		Tracer: rec, Listen: nw.Listen, Dial: dial,
	})
	if err != nil {
		t.Fatalf("NewRelayAgent: %v", err)
	}
	if err := r.Start("127.0.0.1:0", serverAddr); err != nil {
		t.Fatalf("relay Start: %v", err)
	}
	t.Cleanup(r.Shutdown)
	return r
}

// startChaosUE builds and starts one traced UE client.
func startChaosUE(t *testing.T, rec *trace.Recorder, id, relayAddr, serverAddr string,
	period, expiry time.Duration, dial func(string, string) (net.Conn, error)) *UEClient {
	t.Helper()
	u := newChaosUE(t, rec, id, relayAddr, serverAddr, period, expiry, dial)
	if err := u.Start(); err != nil {
		t.Fatalf("ue %s Start: %v", id, err)
	}
	return u
}

// newChaosUE builds one traced UE client, shut down at cleanup, and leaves
// running it to the caller.
func newChaosUE(t *testing.T, rec *trace.Recorder, id, relayAddr, serverAddr string,
	period, expiry time.Duration, dial func(string, string) (net.Conn, error)) *UEClient {
	t.Helper()
	cfg := ueConfig(id, relayAddr, serverAddr, period, expiry)
	cfg.Tracer = rec
	cfg.Dial = dial
	u, err := NewUEClient(cfg)
	if err != nil {
		t.Fatalf("NewUEClient(%s): %v", id, err)
	}
	t.Cleanup(u.Shutdown)
	return u
}

// TestChaosRelayCrashMidBatch kills the relay while UE heartbeats sit
// collected in its batch buffer: the feedback timers must recover every one
// of them over the direct path. In the bubble the relay dies at 135 s
// holding each UE's heartbeat of 0 s; each UE sends its 270 s heartbeat
// direct, and its first falls back at 305.01 s, the grid instant after its
// window lapses.
func TestChaosRelayCrashMidBatch(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		var rec trace.Recorder
		s := startChaosServer(t, nw, &rec, 0)
		var (
			period = 270 * time.Second
			expiry = 300 * time.Second
		)
		// Long relay period + large capacity: heartbeats sit collected until
		// the period flush, so a mid-period crash strands a partial batch.
		r := startChaosRelay(t, nw, &rec, "chaos-relay", s.Addr(), period, expiry, nw.Dial)

		ids := []string{"chaos-ue-1", "chaos-ue-2", "chaos-ue-3"}
		var ues []*UEClient
		for _, id := range ids {
			ues = append(ues, startChaosUE(t, &rec, id, r.Addr(), s.Addr(), period, expiry, nw.Dial))
		}

		// Let the pipeline turn over, then crash the relay mid-period with
		// fresh heartbeats collected but unflushed.
		await(t, 0, func() bool { return r.Stats().Collected == 3 }, "relay collecting")
		time.Sleep(period / 2)
		r.Shutdown()

		lapsed := ues[0].window(0) + sendGrain
		allDelivered(t, &rec, lapsed, 3)
		assertNoDuplicateAcks(t, &rec)
		assertMonotonicAcks(t, &rec)
		for _, id := range ids {
			if !s.Online(id, time.Now()) {
				t.Errorf("%s offline after relay crash recovery", id)
			}
		}
		assertFallbacks(t, &rec, 3, "one for each heartbeat the crash stranded")
		for _, u := range ues {
			if st := u.Stats(); st.FallbackResends != 1 || st.Direct != 1 {
				t.Errorf("%+v, want one fallback and one direct send", st)
			}
		}
	})
}

// TestChaosServerPartitionDuringFlush partitions the relay→server link so
// flushed batches vanish in flight; after the window heals, presence must
// converge with zero lost heartbeats. In the bubble the partition runs from
// 300 s to 600 s: the relay's flush at 270 s gets through, the one at 540 s
// is swallowed, and the two heartbeats of 270 s it held fall back at
// 575.01 s; the flush at 810 s gets through again. The two routes of the
// swallowed batch lapse at that boundary, and once the UEs stop the relay
// holds none after its flush of 1 080 s.
func TestChaosServerPartitionDuringFlush(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		var rec trace.Recorder
		s := startChaosServer(t, nw, &rec, 0)

		// Partition the relay upstream between 300 s and 600 s.
		faults := faultnet.NewSchedule(42, []faultnet.Window{
			{From: 300 * time.Second, To: 600 * time.Second,
				Fault: faultnet.Fault{Kind: faultnet.KindPartition}},
		})
		faults.SetTracer(&rec)

		var (
			period = 270 * time.Second
			expiry = 300 * time.Second
		)
		faults.Start()
		r := startChaosRelay(t, nw, &rec, "part-relay", s.Addr(), period, expiry, faults.On(nw).Dial)

		ids := []string{"part-ue-1", "part-ue-2"}
		var ues []*UEClient
		for _, id := range ids {
			ues = append(ues, startChaosUE(t, &rec, id, r.Addr(), s.Addr(), period, expiry, nw.Dial))
		}

		// Run through the partition window and past its heal.
		time.Sleep(600 * time.Second)
		if st := faults.Stats(); st.DroppedSends != 1 {
			t.Fatalf("partition swallowed %d sends (stats %+v), want exactly 1", st.DroppedSends, st)
		}

		healed := 815 * time.Second // past the flush of 810 s
		allDelivered(t, &rec, healed, 6)
		assertNoDuplicateAcks(t, &rec)
		for _, id := range ids {
			await(t, healed, func() bool { return s.Online(id, time.Now()) },
				id+" back online after partition heal")
		}
		assertFallbacks(t, &rec, 2, "one for each heartbeat the partition swallowed")
		// The batches the partition swallowed were never acknowledged: their
		// routes lapse with their UEs' windows instead of staying forever.
		for _, u := range ues {
			u.Shutdown()
		}
		await(t, healed+270*time.Second, func() bool {
			st := r.Stats()
			return st.Routes == 0 && st.RoutesExpired == 2
		}, "the relay's feedback routes drain after the heal")
	})
}

// TestChaosSlowLorisRelay throttles one UE's link to the relay down to a
// trickle: that UE must recover over the fallback path while a healthy UE
// on the same relay keeps relaying unaffected. Both run on one driver, so
// the slow UE's step blocks inside the write the healthy UE's steps must
// not wait behind, and its fallback comes from the driver's sweep of a
// blocked unit. In the bubble the slow UE's first heartbeat falls back at
// 305 s, its window's lapse, while its write trickles on to 316 s; the
// healthy UE sends a grain after each period's start, as a helper runner
// steps it beside the stuck one.
func TestChaosSlowLorisRelay(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		var rec trace.Recorder
		s := startChaosServer(t, nw, &rec, 0)
		var (
			period = 270 * time.Second
			expiry = 300 * time.Second
		)
		r := startChaosRelay(t, nw, &rec, "loris-relay", s.Addr(), period, expiry, nw.Dial)

		// The UE's 40 B register and 41 B heartbeat each trickle out at a
		// quarter byte a second, over 156 s and 160 s, so the heartbeat's
		// write is stuck across its 305 s window. Only the D2D link to the
		// relay is throttled — the cellular direct path stays healthy,
		// matching the paper's model of a degraded short-range link with an
		// always-available fallback.
		faults := faultnet.NewSchedule(7, []faultnet.Window{
			{Fault: faultnet.Fault{Kind: faultnet.KindThrottle, Rate: 0.25}},
		})
		faults.SetTracer(&rec)
		relayAddr, throttled := r.Addr(), faults.On(nw)
		d2dOnly := func(network, addr string) (net.Conn, error) {
			if addr == relayAddr {
				return throttled.Dial(network, addr)
			}
			return nw.Dial(network, addr)
		}

		slow := newChaosUE(t, &rec, "loris-slow", r.Addr(), s.Addr(), period, expiry, d2dOnly)
		fast := newChaosUE(t, &rec, "loris-fast", r.Addr(), s.Addr(), period, expiry, nw.Dial)
		drv := NewDriver()
		t.Cleanup(func() {
			slow.closeLinks() // the slow step returns from its write
			drv.Stop()
		})
		// The slow UE comes first: it wins the tie at the shared first instant.
		start := time.Now()
		drv.Add(slow, slow.Begin(start))
		drv.Add(fast, fast.Begin(start))

		checked := 545 * time.Second // past the relay's flush of 540 s
		await(t, checked, func() bool { return fast.Stats().FeedbackAcks == 2 },
			"healthy UE keeps relaying beside the slow-loris")
		// The slow UE's writes hold its step for 316 s; a healthy UE
		// stepped behind it would have missed its sends in that time, not
		// sent one a period.
		if sent, want := fast.Stats().ViaRelay, uint32(3); sent != want {
			t.Errorf("healthy UE sent %d heartbeats via the relay in %v, want exactly %d at a %v period",
				sent, time.Since(start).Round(time.Millisecond), want, period)
		}
		await(t, checked, func() bool {
			st := slow.Stats()
			return st.FallbackResends+st.Direct == 1
		}, "slow-loris UE recovered via direct path")
		// Its register and first heartbeat take minutes to trickle out; the
		// fallback comes from the driver's sweep while the write is stuck,
		// so it is emitted before the relay write returns (its d2d-send, or
		// its d2d-fail once the fallback dropped the link).
		first := func(kinds ...trace.Kind) (i int, ev trace.Event) {
			for i, ev := range rec.Events() {
				if ev.Device == "loris-slow" && slices.Contains(kinds, ev.Kind) {
					return i, ev
				}
			}
			return -1, trace.Event{}
		}
		fell, fallback := first(trace.KindFallback)
		if fell < 0 {
			t.Fatal("the slow-loris UE never fell back")
		}
		if returned, _ := first(trace.KindD2DSend, trace.KindD2DFail); returned < fell {
			t.Errorf("the slow-loris UE's relay write returned at event %d (-1: never), its fallback is event %d: want the fallback while the write was stuck", returned, fell)
		}
		if fellBack, lapse := fallback.At.Milliseconds(), start.Add(slow.window(0)).UnixMilli(); fellBack != lapse {
			t.Errorf("the slow-loris UE fell back %d ms after its window lapsed, want at the lapse", fellBack-lapse)
		}

		allDelivered(t, &rec, 850*time.Second, 5)
		assertNoDuplicateAcks(t, &rec)
		await(t, 850*time.Second, func() bool {
			return s.Online("loris-slow", time.Now()) && s.Online("loris-fast", time.Now())
		}, "both UEs online despite the throttled link")
	})
}

// TestChaosCorruptedFrames corrupts the relay's upstream frames: the server
// must reject them as protocol errors without panicking, the relay must
// reconnect, and every heartbeat must still land via relay retry or
// fallback. The idle timeout is 12 minutes, the storm runs 44 minutes,
// which ends off the 270 s send grid, and with the seed fixed the same 5
// frames are corrupted in every run.
func TestChaosCorruptedFrames(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		var rec trace.Recorder
		// Corrupted length fields can stall a read mid-frame; the idle reaper
		// turns that into a bounded drop instead of a wedged handler.
		s := startChaosServer(t, nw, &rec, 12*time.Minute)

		faults := faultnet.NewSchedule(11, []faultnet.Window{
			{Fault: faultnet.Fault{Kind: faultnet.KindCorrupt, Prob: 0.4}},
		})
		faults.SetTracer(&rec)

		var (
			period = 270 * time.Second
			expiry = 300 * time.Second
		)
		r := startChaosRelay(t, nw, &rec, "corrupt-relay", s.Addr(), period, expiry, faults.On(nw).Dial)

		ids := []string{"corrupt-ue-1", "corrupt-ue-2"}
		for _, id := range ids {
			startChaosUE(t, &rec, id, r.Addr(), s.Addr(), period, expiry, nw.Dial)
		}

		// Let corrupted batches hit the server for a while.
		time.Sleep(44 * time.Minute)
		if st, want := faults.Stats(), 5; st.Corrupted != want {
			t.Fatalf("%d frames corrupted (stats %+v), want exactly %d", st.Corrupted, st, want)
		}

		allDelivered(t, &rec, 44*time.Minute+310*time.Second, 20)
		assertNoDuplicateAcks(t, &rec)
		// Each corrupted frame cost the relay its connection, none the server.
		if st := s.Stats(); st.ProtocolErrors != 5 {
			t.Errorf("%d protocol errors, want one per corrupted frame", st.ProtocolErrors)
		}

		// The server survived: it still answers a clean direct heartbeat.
		conn, err := nw.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatalf("dial after corruption storm: %v", err)
		}
		defer conn.Close()
		if err := hbprototest.WriteFrame(conn, &hbproto.Heartbeat{
			Src: "prober", Seq: 1, App: "std", Origin: time.Now(), Expiry: time.Minute, Pad: 54,
		}); err != nil {
			t.Fatalf("probe write: %v", err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := hbprototest.ReadFrame(conn); err != nil {
			t.Fatalf("server unresponsive after corrupted frames: %v", err)
		}
	})
}

// TestChaosSeededRandomChurn runs the stack under a Generate'd random fault
// timeline (latency, corruption, resets, partitions) and checks the
// zero-lost invariant still holds — the standing harness future robustness
// PRs extend. The timeline is seeded: a failure reproduces byte-for-byte.
// The timeline spans 45 minutes at the relay's 270 s period, and the run
// lasts 53 minutes, off the send grid.
func TestChaosSeededRandomChurn(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		var rec trace.Recorder
		s := startChaosServer(t, nw, &rec, 15*time.Minute)

		windows := faultnet.Generate(1234, faultnet.GenConfig{
			Horizon: 45 * time.Minute,
			Count:   5,
			Kinds: []faultnet.Kind{
				faultnet.KindLatency, faultnet.KindCorrupt, faultnet.KindReset,
			},
			MinDur: 3 * time.Minute,
			MaxDur: 12 * time.Minute,
		})
		faults := faultnet.NewSchedule(1234, windows)
		faults.SetTracer(&rec)

		var (
			period = 270 * time.Second
			expiry = 300 * time.Second
		)
		faults.Start()
		r := startChaosRelay(t, nw, &rec, "churn-relay", s.Addr(), period, expiry, faults.On(nw).Dial)

		ids := []string{"churn-ue-1", "churn-ue-2", "churn-ue-3"}
		for _, id := range ids {
			startChaosUE(t, &rec, id, r.Addr(), s.Addr(), period, expiry, nw.Dial)
		}

		// Ride out the whole fault timeline, then let the system settle.
		time.Sleep(53 * time.Minute)

		settled := 53*time.Minute + 310*time.Second
		allDelivered(t, &rec, settled, 36)
		assertNoDuplicateAcks(t, &rec)
		for _, id := range ids {
			await(t, settled, func() bool { return s.Online(id, time.Now()) },
				id+" online after churn")
		}
		// At this seed the relay's flushes fall in the three latency
		// windows only (7 by the instant checked): the relay has lost no
		// batch, and no UE fell back.
		if st := faults.Stats(); (st != faultnet.Stats{Delayed: 7} || len(rec.ByKind(trace.KindFallback)) != 0) {
			t.Errorf("faults %+v and %d fallbacks, want 7 delayed flushes and none", st, len(rec.ByKind(trace.KindFallback)))
		}
	})
}

// TestUEFallbackRelayDiesBetweenSendAndAck pins the exact Section IV-C gap:
// the relay receives the D2D heartbeat and dies before any feedback. The
// feedback timer must fire, FallbackResends must increment, and the server
// must see exactly one copy of the heartbeat — on the grid instant after
// the device rule's 305 s window.
func TestUEFallbackRelayDiesBetweenSendAndAck(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		s := startServer(t, nw)

		// A fake relay: accept one UE, swallow its register + first heartbeat,
		// then die without ever sending feedback.
		ln, err := nw.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(func() { _ = ln.Close() })
		received := make(chan struct{})
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_, _ = hbprototest.ReadFrame(conn) // register
			_, _ = hbprototest.ReadFrame(conn) // heartbeat — accepted, never acked
			close(received)
			_ = conn.Close()
		}()

		// Period of an hour: exactly one heartbeat is ever generated, so the
		// accounting below is exact.
		u := startUE(t, nw, ueConfig("ue-gap", ln.Addr().String(), s.Addr(), time.Hour, 300*time.Second))

		select {
		case <-received:
		case <-time.After(2 * time.Second):
			t.Fatal("fake relay never received the heartbeat")
		}

		lapsed := u.window(0) + sendGrain
		await(t, lapsed, func() bool { return u.Stats().FallbackResends == 1 },
			"feedback timer fired exactly one fallback resend")
		await(t, lapsed, func() bool { return s.Online("ue-gap", time.Now()) },
			"UE online via the fallback copy")

		us := u.Stats()
		if us.ViaRelay != 1 || us.Generated != 1 || us.FeedbackAcks != 0 {
			t.Fatalf("ue stats = %+v, want exactly one relayed send, no feedback", us)
		}
		st := s.Stats()
		if st.HeartbeatsDirect != 1 || st.HeartbeatsRelayed != 0 {
			t.Fatalf("server stats = %+v, want exactly one (direct fallback) heartbeat", st)
		}
	})
}

// TestRelayReconnectBackoff covers the thundering-herd fix: a relay whose
// server is gone for good keeps backing off without holding up Shutdown,
// and its jitter, seeded from its ID, spreads backoffs across
// [base/2, 3·base/2). The relay keeps a 50 ms period: it redials only
// when it flushes, and a backoff, at most 7.5 s, shows only between
// flushes closer together than that. The server vanishes at 975 ms, and
// every redial falls on the first flush past the backoff the one before
// armed, doubling from 50 ms to its 5 s ceiling.
func TestRelayReconnectBackoff(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		s := startServer(t, nw)
		const id, period = "backoff-relay", 50 * time.Millisecond
		var (
			mu    sync.Mutex
			dials []time.Time // every upstream dial, refused ones too
		)
		r, err := NewRelayAgent(RelayAgentConfig{
			ID: id, App: "std", Period: period, Expiry: 200 * time.Millisecond, Pad: 54, Capacity: 8,
			Listen: nw.Listen,
			Dial: func(network, addr string) (net.Conn, error) {
				mu.Lock()
				dials = append(dials, time.Now())
				mu.Unlock()
				return nw.Dial(network, addr)
			},
		})
		if err != nil {
			t.Fatalf("NewRelayAgent: %v", err)
		}
		if err := r.Start("127.0.0.1:0", s.Addr()); err != nil {
			t.Fatalf("relay Start: %v", err)
		}
		t.Cleanup(r.Shutdown)
		vanish := 975 * time.Millisecond // between the flushes of 950 ms and 1 s
		await(t, vanish, func() bool { return r.Stats().ShardDials == 1 }, "relay dialed the server")

		s.Shutdown() // the server vanishes for good
		await(t, vanish+period, func() bool { return r.Stats().DroppedNoShard > 0 },
			"flushes after the loss are dropped, not queued")

		// The break backs off from the last send over the connection;
		// each refused dial from its own instant, on a base twice the
		// last. An uplink with the relay's ID draws the same jitter.
		time.Sleep(30 * time.Second)
		ref := session.Uplink{Register: &hbproto.Register{ID: id}}
		epoch := r.epoch
		flushAt := func(at time.Time) time.Time { // the first flush at or after at
			k := (at.Sub(epoch) + period - 1) / period
			return epoch.Add(k * period)
		}
		want := []time.Time{epoch.Add(period)} // the first dial, at the first flush
		until := epoch.Add(vanish.Truncate(period)).Add(ref.Jitter(50 * time.Millisecond))
		for base := 100 * time.Millisecond; ; base = min(2*base, 5*time.Second) {
			at := flushAt(until)
			if at.After(time.Now()) {
				break
			}
			want = append(want, at)
			until = at.Add(ref.Jitter(base))
		}
		mu.Lock()
		got := slices.Clone(dials)
		mu.Unlock()
		if !slices.Equal(got, want) {
			t.Errorf("dials at %v, want %v", offsets(epoch, got), offsets(epoch, want))
		}

		// Shutdown must return promptly rather than waiting out a backoff.
		done := make(chan struct{})
		go func() {
			r.Shutdown()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("relay shutdown hung while backing off")
		}
	})

	// Jitter seeded from the ID is deterministic, stays inside ±50%, and
	// differs between relays.
	relay := func(id string) *RelayAgent {
		r, err := NewRelayAgent(RelayAgentConfig{
			ID: id, App: "a", Period: time.Second, Expiry: time.Second, Pad: 1, Capacity: 1,
		})
		if err != nil {
			t.Fatalf("NewRelayAgent: %v", err)
		}
		return r
	}
	a, b, c := relay("j"), relay("j"), relay("k")
	base, differs := 100*time.Millisecond, false
	for i := 0; i < 32; i++ {
		da, db := a.up.Jitter(base), b.up.Jitter(base)
		if da != db {
			t.Fatalf("same ID diverged at draw %d: %v vs %v", i, da, db)
		}
		if da < base/2 || da >= base+base/2 {
			t.Fatalf("Jitter(%v) = %v outside [50%%, 150%%)", base, da)
		}
		differs = differs || c.up.Jitter(base) != da
	}
	if !differs {
		t.Fatal("relays with different IDs drew the same jitter")
	}
}

// offsets renders instants as offsets from epoch.
func offsets(epoch time.Time, ts []time.Time) []time.Duration {
	out := make([]time.Duration, len(ts))
	for i, t := range ts {
		out[i] = t.Sub(epoch)
	}
	return out
}
