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
// Fault timelines come from internal/faultnet and are seeded, so a failing
// run reproduces with its seed.

import (
	"net"
	"testing"
	"time"

	"d2dhb/internal/faultnet"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/hbproto/hbprototest"
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

// assertEventuallyAllDelivered snapshots the generated set and polls until
// the server has seen every one of them: the zero-lost-heartbeats
// invariant. Heartbeats generated after the snapshot are not required.
func assertEventuallyAllDelivered(t *testing.T, rec *trace.Recorder, within time.Duration) {
	t.Helper()
	snapshot := generatedSet(rec)
	if len(snapshot) == 0 {
		t.Fatal("no heartbeats generated; scenario never ran")
	}
	var missing []hbKey
	eventually(t, within, func() bool {
		delivered := deliveredSet(rec)
		missing = missing[:0]
		for k := range snapshot {
			if !delivered[k] {
				missing = append(missing, k)
			}
		}
		return len(missing) == 0
	}, "zero lost heartbeats (fallback fired for every unacked send)")
	if len(missing) > 0 {
		t.Fatalf("lost heartbeats: %v", missing)
	}
}

// assertNoDuplicateAcks checks each (device, seq) was feedback-confirmed at
// most once: ack refs stay consistent even when faults force resends.
func assertNoDuplicateAcks(t *testing.T, rec *trace.Recorder) {
	t.Helper()
	seen := make(map[hbKey]int)
	for _, ev := range rec.ByKind(trace.KindAck) {
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
	for _, ev := range rec.ByKind(trace.KindAck) {
		if prev, ok := last[ev.Device]; ok && ev.Seq <= prev {
			t.Errorf("device %s ack seq %d after %d (non-monotonic)", ev.Device, ev.Seq, prev)
		}
		last[ev.Device] = ev.Seq
	}
}

// startChaosUE builds and starts one traced UE client.
func startChaosUE(t *testing.T, rec *trace.Recorder, id, relayAddr, serverAddr string,
	period, expiry, feedback time.Duration, dial func(string, string) (net.Conn, error)) *UEClient {
	t.Helper()
	u := newChaosUE(t, rec, id, relayAddr, serverAddr, period, expiry, feedback, dial)
	if err := u.Start(); err != nil {
		t.Fatalf("ue %s Start: %v", id, err)
	}
	return u
}

// newChaosUE builds one traced UE client, shut down at cleanup, and leaves
// running it to the caller.
func newChaosUE(t *testing.T, rec *trace.Recorder, id, relayAddr, serverAddr string,
	period, expiry, feedback time.Duration, dial func(string, string) (net.Conn, error)) *UEClient {
	t.Helper()
	cfg := ueConfig(id, relayAddr, serverAddr, period, expiry)
	cfg.FeedbackTimeout = feedback
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
// of them over the direct path.
func TestChaosRelayCrashMidBatch(t *testing.T) {
	var rec trace.Recorder
	s := NewServer()
	s.SetTracer(&rec)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("server Start: %v", err)
	}
	t.Cleanup(s.Shutdown)

	const (
		period   = 120 * time.Millisecond
		expiry   = 300 * time.Millisecond
		feedback = 150 * time.Millisecond
	)
	// Long relay period + large capacity: heartbeats sit collected until
	// the period flush, so a mid-period crash strands a partial batch.
	r, err := NewRelayAgent(RelayAgentConfig{
		ID: "chaos-relay", App: "std", Period: 400 * time.Millisecond,
		Expiry: expiry, Pad: 54, Capacity: 64, Tracer: &rec,
	})
	if err != nil {
		t.Fatalf("NewRelayAgent: %v", err)
	}
	if err := r.Start("127.0.0.1:0", s.Addr()); err != nil {
		t.Fatalf("relay Start: %v", err)
	}
	t.Cleanup(r.Shutdown)

	ids := []string{"chaos-ue-1", "chaos-ue-2", "chaos-ue-3"}
	for _, id := range ids {
		startChaosUE(t, &rec, id, r.Addr(), s.Addr(), period, expiry, feedback, nil)
	}

	// Let the pipeline turn over, then crash the relay mid-period with
	// fresh heartbeats collected but unflushed.
	eventually(t, 3*time.Second, func() bool { return r.Stats().Collected >= 3 }, "relay collecting")
	time.Sleep(period / 2)
	r.Shutdown()

	assertEventuallyAllDelivered(t, &rec, 5*time.Second)
	assertNoDuplicateAcks(t, &rec)
	assertMonotonicAcks(t, &rec)
	for _, id := range ids {
		if !s.Online(id, time.Now()) {
			t.Errorf("%s offline after relay crash recovery", id)
		}
	}
	if len(rec.ByKind(trace.KindFallback)) == 0 {
		t.Error("relay crash stranded no heartbeats — scenario never exercised the fallback")
	}
}

// TestChaosServerPartitionDuringFlush partitions the relay→server link so
// flushed batches vanish in flight; after the window heals, presence must
// converge with zero lost heartbeats.
func TestChaosServerPartitionDuringFlush(t *testing.T) {
	var rec trace.Recorder
	s := NewServer()
	s.SetTracer(&rec)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("server Start: %v", err)
	}
	t.Cleanup(s.Shutdown)

	// Partition the relay upstream between 300 ms and 900 ms.
	faults := faultnet.NewSchedule(42, []faultnet.Window{
		{From: 300 * time.Millisecond, To: 900 * time.Millisecond,
			Fault: faultnet.Fault{Kind: faultnet.KindPartition}},
	})
	faults.SetTracer(&rec)

	const (
		period   = 120 * time.Millisecond
		expiry   = 300 * time.Millisecond
		feedback = 150 * time.Millisecond
	)
	r, err := NewRelayAgent(RelayAgentConfig{
		ID: "part-relay", App: "std", Period: 150 * time.Millisecond,
		Expiry: expiry, Pad: 54, Capacity: 64, Tracer: &rec,
		Dial: faults.Dial,
	})
	if err != nil {
		t.Fatalf("NewRelayAgent: %v", err)
	}
	faults.Start()
	if err := r.Start("127.0.0.1:0", s.Addr()); err != nil {
		t.Fatalf("relay Start: %v", err)
	}
	t.Cleanup(r.Shutdown)

	ids := []string{"part-ue-1", "part-ue-2"}
	for _, id := range ids {
		startChaosUE(t, &rec, id, r.Addr(), s.Addr(), period, expiry, feedback, nil)
	}

	// Run through the partition window and past its heal.
	time.Sleep(1200 * time.Millisecond)
	if st := faults.Stats(); st.DroppedSends == 0 {
		t.Fatalf("partition swallowed nothing (stats %+v); window never hit a flush", st)
	}

	assertEventuallyAllDelivered(t, &rec, 5*time.Second)
	assertNoDuplicateAcks(t, &rec)
	for _, id := range ids {
		eventually(t, 3*time.Second, func() bool { return s.Online(id, time.Now()) },
			id+" back online after partition heal")
	}
	if len(rec.ByKind(trace.KindFallback)) == 0 {
		t.Error("partition dropped batches but no fallback fired")
	}
}

// TestChaosSlowLorisRelay throttles one UE's link to the relay down to a
// trickle: that UE must recover over the fallback path while a healthy UE
// on the same relay keeps relaying unaffected. Both run on one driver, so
// the slow UE's step blocks for seconds inside the write the healthy UE's
// steps must not wait behind, and its fallback comes from the driver's
// sweep of a blocked unit.
func TestChaosSlowLorisRelay(t *testing.T) {
	var rec trace.Recorder
	s := NewServer()
	s.SetTracer(&rec)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("server Start: %v", err)
	}
	t.Cleanup(s.Shutdown)

	const (
		period   = 150 * time.Millisecond
		expiry   = 300 * time.Millisecond
		feedback = 200 * time.Millisecond
	)
	r, err := NewRelayAgent(RelayAgentConfig{
		ID: "loris-relay", App: "std", Period: period,
		Expiry: expiry, Pad: 54, Capacity: 64, Tracer: &rec,
	})
	if err != nil {
		t.Fatalf("NewRelayAgent: %v", err)
	}
	if err := r.Start("127.0.0.1:0", s.Addr()); err != nil {
		t.Fatalf("relay Start: %v", err)
	}
	t.Cleanup(r.Shutdown)

	// ~60-byte frames at 40 B/s trickle out over ~1.5 s, far past the
	// feedback timeout. Only the D2D link to the relay is throttled — the
	// cellular direct path stays healthy, matching the paper's model of a
	// degraded short-range link with an always-available fallback.
	faults := faultnet.NewSchedule(7, []faultnet.Window{
		{Fault: faultnet.Fault{Kind: faultnet.KindThrottle, Rate: 40}},
	})
	faults.SetTracer(&rec)
	relayAddr := r.Addr()
	d2dOnly := func(network, addr string) (net.Conn, error) {
		if addr == relayAddr {
			return faults.Dial(network, addr)
		}
		return net.Dial(network, addr)
	}

	slow := newChaosUE(t, &rec, "loris-slow", r.Addr(), s.Addr(), period, expiry, feedback, d2dOnly)
	fast := newChaosUE(t, &rec, "loris-fast", r.Addr(), s.Addr(), period, expiry, feedback, nil)
	drv := NewDriver()
	t.Cleanup(func() {
		slow.closeLinks() // the slow step returns from its write
		drv.Stop()
	})
	// The slow UE comes first: it wins the tie at the shared first instant.
	start := time.Now()
	drv.Add(slow, slow.Begin(start))
	drv.Add(fast, fast.Begin(start))

	eventually(t, 4*time.Second, func() bool { return fast.Stats().FeedbackAcks >= 2 },
		"healthy UE keeps relaying beside the slow-loris")
	// The slow UE's register frame alone trickles out for a second; a
	// healthy UE stepped behind it would have sent about one heartbeat in
	// that time, not one a period.
	if sent, want := fast.Stats().ViaRelay, uint32(time.Since(start)/period)/2; sent < want {
		t.Errorf("healthy UE sent %d heartbeats via the relay in %v, want ≥ %d at a %v period",
			sent, time.Since(start).Round(time.Millisecond), want, period)
	}
	eventually(t, 4*time.Second, func() bool {
		st := slow.Stats()
		return st.FallbackResends >= 1 || st.Direct >= 1
	}, "slow-loris UE recovered via direct path")
	// Its register and first heartbeat take seconds to trickle out; the
	// fallback comes from the driver's sweep while the write is stuck.
	first := func(kind trace.Kind) (atMs int64, ok bool) {
		for _, ev := range rec.ByKind(kind) {
			if ev.Device == "loris-slow" {
				return ev.AtMs, true
			}
		}
		return 0, false
	}
	fellBack, ok := first(trace.KindFallback)
	if !ok {
		t.Fatal("the slow-loris UE never fell back")
	}
	if relayed, ok := first(trace.KindD2DSend); ok && relayed <= fellBack {
		t.Errorf("the slow-loris UE fell back %d ms after its first relay write returned, want while it was stuck", fellBack-relayed)
	}

	assertEventuallyAllDelivered(t, &rec, 6*time.Second)
	assertNoDuplicateAcks(t, &rec)
	eventually(t, 3*time.Second, func() bool {
		return s.Online("loris-slow", time.Now()) && s.Online("loris-fast", time.Now())
	}, "both UEs online despite the throttled link")
}

// TestChaosCorruptedFrames corrupts the relay's upstream frames: the server
// must reject them as protocol errors without panicking, the relay must
// reconnect, and every heartbeat must still land via relay retry or
// fallback.
func TestChaosCorruptedFrames(t *testing.T) {
	var rec trace.Recorder
	s := NewServer()
	s.SetTracer(&rec)
	// Corrupted length fields can stall a read mid-frame; the idle reaper
	// turns that into a bounded drop instead of a wedged handler.
	s.SetIdleTimeout(400 * time.Millisecond)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("server Start: %v", err)
	}
	t.Cleanup(s.Shutdown)

	faults := faultnet.NewSchedule(11, []faultnet.Window{
		{Fault: faultnet.Fault{Kind: faultnet.KindCorrupt, Prob: 0.4}},
	})
	faults.SetTracer(&rec)

	const (
		period   = 120 * time.Millisecond
		expiry   = 300 * time.Millisecond
		feedback = 150 * time.Millisecond
	)
	r, err := NewRelayAgent(RelayAgentConfig{
		ID: "corrupt-relay", App: "std", Period: 150 * time.Millisecond,
		Expiry: expiry, Pad: 54, Capacity: 64, Tracer: &rec,
		Dial:          faults.Dial,
		ReconnectBase: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewRelayAgent: %v", err)
	}
	if err := r.Start("127.0.0.1:0", s.Addr()); err != nil {
		t.Fatalf("relay Start (register may be corrupted, retry): %v", err)
	}
	t.Cleanup(r.Shutdown)

	ids := []string{"corrupt-ue-1", "corrupt-ue-2"}
	for _, id := range ids {
		startChaosUE(t, &rec, id, r.Addr(), s.Addr(), period, expiry, feedback, nil)
	}

	// Let corrupted batches hit the server for a while.
	time.Sleep(1500 * time.Millisecond)
	if st := faults.Stats(); st.Corrupted == 0 {
		t.Fatalf("no frames corrupted (stats %+v)", st)
	}

	assertEventuallyAllDelivered(t, &rec, 6*time.Second)
	assertNoDuplicateAcks(t, &rec)

	// The server survived: it still answers a clean direct heartbeat.
	conn, err := net.Dial("tcp", s.Addr())
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
}

// TestChaosSeededRandomChurn runs the stack under a Generate'd random fault
// timeline (latency, corruption, resets, partitions) and checks the
// zero-lost invariant still holds — the standing harness future robustness
// PRs extend. The timeline is seeded: a failure reproduces byte-for-byte.
func TestChaosSeededRandomChurn(t *testing.T) {
	var rec trace.Recorder
	s := NewServer()
	s.SetTracer(&rec)
	s.SetIdleTimeout(500 * time.Millisecond)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("server Start: %v", err)
	}
	t.Cleanup(s.Shutdown)

	windows := faultnet.Generate(1234, faultnet.GenConfig{
		Horizon: 1500 * time.Millisecond,
		Count:   5,
		Kinds: []faultnet.Kind{
			faultnet.KindLatency, faultnet.KindCorrupt, faultnet.KindReset,
		},
		MinDur: 100 * time.Millisecond,
		MaxDur: 400 * time.Millisecond,
	})
	faults := faultnet.NewSchedule(1234, windows)
	faults.SetTracer(&rec)

	const (
		period   = 120 * time.Millisecond
		expiry   = 300 * time.Millisecond
		feedback = 150 * time.Millisecond
	)
	r, err := NewRelayAgent(RelayAgentConfig{
		ID: "churn-relay", App: "std", Period: 150 * time.Millisecond,
		Expiry: expiry, Pad: 54, Capacity: 64, Tracer: &rec,
		Dial:          faults.Dial,
		ReconnectBase: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewRelayAgent: %v", err)
	}
	faults.Start()
	if err := r.Start("127.0.0.1:0", s.Addr()); err != nil {
		t.Fatalf("relay Start: %v", err)
	}
	t.Cleanup(r.Shutdown)

	ids := []string{"churn-ue-1", "churn-ue-2", "churn-ue-3"}
	for _, id := range ids {
		startChaosUE(t, &rec, id, r.Addr(), s.Addr(), period, expiry, feedback, nil)
	}

	// Ride out the whole fault timeline, then let the system settle.
	time.Sleep(1800 * time.Millisecond)

	assertEventuallyAllDelivered(t, &rec, 6*time.Second)
	assertNoDuplicateAcks(t, &rec)
	for _, id := range ids {
		eventually(t, 3*time.Second, func() bool { return s.Online(id, time.Now()) },
			id+" online after churn")
	}
}

// TestUEFallbackRelayDiesBetweenSendAndAck pins the exact Section IV-C gap:
// the relay receives the D2D heartbeat and dies before any feedback. The
// feedback timer must fire, FallbackResends must increment, and the server
// must see exactly one copy of the heartbeat.
func TestUEFallbackRelayDiesBetweenSendAndAck(t *testing.T) {
	s := startServer(t)

	// A fake relay: accept one UE, swallow its register + first heartbeat,
	// then die without ever sending feedback.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
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
	cfg := ueConfig("ue-gap", ln.Addr().String(), s.Addr(), time.Hour, 300*time.Millisecond)
	cfg.FeedbackTimeout = 120 * time.Millisecond
	u, err := NewUEClient(cfg)
	if err != nil {
		t.Fatalf("NewUEClient: %v", err)
	}
	if err := u.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(u.Shutdown)

	select {
	case <-received:
	case <-time.After(2 * time.Second):
		t.Fatal("fake relay never received the heartbeat")
	}

	eventually(t, 2*time.Second, func() bool { return u.Stats().FallbackResends == 1 },
		"feedback timer fired exactly one fallback resend")
	eventually(t, 2*time.Second, func() bool { return s.Online("ue-gap", time.Now()) },
		"UE online via the fallback copy")

	us := u.Stats()
	if us.ViaRelay != 1 || us.Generated != 1 || us.FeedbackAcks != 0 {
		t.Fatalf("ue stats = %+v, want exactly one relayed send, no feedback", us)
	}
	st := s.Stats()
	if st.HeartbeatsDirect != 1 || st.HeartbeatsRelayed != 0 {
		t.Fatalf("server stats = %+v, want exactly one (direct fallback) heartbeat", st)
	}
}

// TestRelayReconnectBackoffConfigurable covers the thundering-herd fix:
// the base is taken from the config, the seeded jitter spreads backoffs
// across [base/2, 3·base/2), and a relay whose server is gone for good
// keeps backing off without holding up Shutdown.
func TestRelayReconnectBackoffConfigurable(t *testing.T) {
	s := NewServer()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("server Start: %v", err)
	}
	r, err := NewRelayAgent(RelayAgentConfig{
		ID: "backoff-relay", App: "std", Period: 50 * time.Millisecond,
		Expiry: 200 * time.Millisecond, Pad: 54, Capacity: 8,
		ReconnectBase: 30 * time.Millisecond, Seed: 99,
	})
	if err != nil {
		t.Fatalf("NewRelayAgent: %v", err)
	}
	if err := r.Start("127.0.0.1:0", s.Addr()); err != nil {
		t.Fatalf("relay Start: %v", err)
	}
	t.Cleanup(r.Shutdown)
	eventually(t, 2*time.Second, func() bool { return r.Stats().ShardDials == 1 }, "relay dialed the server")

	s.Shutdown() // the server vanishes for good
	eventually(t, 2*time.Second, func() bool { return r.Stats().DroppedNoShard > 0 },
		"flushes after the loss are dropped, not queued")

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

	// Seeded jitter is deterministic and stays inside ±50%.
	a, errA := NewRelayAgent(RelayAgentConfig{
		ID: "j", App: "a", Period: time.Second, Expiry: time.Second, Pad: 1,
		Capacity: 1, Seed: 7,
	})
	b, errB := NewRelayAgent(RelayAgentConfig{
		ID: "j", App: "a", Period: time.Second, Expiry: time.Second, Pad: 1,
		Capacity: 1, Seed: 7,
	})
	if errA != nil || errB != nil {
		t.Fatalf("NewRelayAgent: %v / %v", errA, errB)
	}
	base := 100 * time.Millisecond
	for i := 0; i < 32; i++ {
		da, db := a.up.Jitter(base), b.up.Jitter(base)
		if da != db {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, da, db)
		}
		if da < base/2 || da >= base+base/2 {
			t.Fatalf("Jitter(%v) = %v outside [50%%, 150%%)", base, da)
		}
	}

	// Validation rejects a negative base.
	if _, err := NewRelayAgent(RelayAgentConfig{
		ID: "x", App: "a", Period: time.Second, Expiry: time.Second, Pad: 1,
		Capacity: 1, ReconnectBase: -1,
	}); err == nil {
		t.Fatal("negative reconnect base accepted")
	}
}
