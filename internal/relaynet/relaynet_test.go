package relaynet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/device"
	"d2dhb/internal/faultnet"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/hbproto/hbprototest"
	"d2dhb/internal/telemetry"
	"d2dhb/internal/trace"
)

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition never held: %s", msg)
}

// network is where a test's server, relays and UEs listen and dial: the
// loopback interface, or a faultnet.Network inside a synctest bubble.
type network = faultnet.Net

// loopback is the host's own network.
type loopback = faultnet.OS

// startServer starts a server on nw, shut down at cleanup; setup runs
// before it starts.
func startServer(t *testing.T, nw network, setup ...func(*Server)) *Server {
	t.Helper()
	ln, err := nw.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("server listen: %v", err)
	}
	s := NewServer()
	for _, f := range setup {
		f(s)
	}
	if err := s.StartListener(ln); err != nil {
		t.Fatalf("server Start: %v", err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func startRelay(t *testing.T, nw network, serverAddr string, period, expiry time.Duration, capacity int) *RelayAgent {
	t.Helper()
	r, err := NewRelayAgent(RelayAgentConfig{
		ID: "relay-1", App: "std", Period: period, Expiry: expiry, Pad: 54, Capacity: capacity,
		Listen: nw.Listen, Dial: nw.Dial,
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

// steppedRelay builds a relay agent that runs no turn on a clock of its
// own: the test plays its runner, calling step with explicit kernel
// instants, or offers inputs with their instants set. Its wall timer does
// nothing. upstream is its one shard.
func steppedRelay(t *testing.T, cfg RelayAgentConfig, upstream string) *RelayAgent {
	t.Helper()
	r, err := NewRelayAgent(cfg)
	if err != nil {
		t.Fatalf("NewRelayAgent: %v", err)
	}
	if r.up.Cluster, err = cluster.NewSingleNodeClient(upstream); err != nil {
		t.Fatal(err)
	}
	r.epoch = time.Now()
	r.wake = time.AfterFunc(time.Hour, func() {})
	r.started = true // so Shutdown closes the upstream slots
	t.Cleanup(r.Shutdown)
	return r
}

// holdRunner makes the test the stepped relay's runner: inputs other
// goroutines offer wait in the inbox for queued to take them. The relay
// is handed back before Shutdown, which would otherwise wait for it.
func holdRunner(t *testing.T, r *RelayAgent) {
	t.Helper()
	r.in.mu.Lock()
	r.in.running = true
	r.in.mu.Unlock()
	t.Cleanup(func() {
		r.in.mu.Lock()
		r.in.running = false
		r.in.mu.Unlock()
	})
}

// queued takes the next input offered to a relay the test holds, once
// every other goroutine in the bubble is blocked.
func queued(t *testing.T, r *RelayAgent, what string) input {
	t.Helper()
	var in input
	await(t, 0, func() bool {
		r.in.mu.Lock()
		defer r.in.mu.Unlock()
		if len(r.in.entries) == 0 {
			return false
		}
		in = r.in.entries[0]
		r.in.entries = r.in.entries[1:]
		return true
	}, what)
	return in
}

// beatAt is UE heartbeat m arriving over uc at kernel instant at, just sent.
func beatAt(at time.Duration, uc *ueConn, m hbproto.Heartbeat) *input {
	in := ueHeartbeat(at, uc, &m, 0)
	return &in
}

// drain reads conn until it closes.
func drain(conn net.Conn) { _, _ = io.Copy(io.Discard, conn) }

// startUE starts a UE on nw, shut down at cleanup.
func startUE(t *testing.T, nw network, cfg UEClientConfig) *UEClient {
	t.Helper()
	if cfg.Dial == nil {
		cfg.Dial = nw.Dial
	}
	u, err := NewUEClient(cfg)
	if err != nil {
		t.Fatalf("NewUEClient: %v", err)
	}
	t.Cleanup(u.Shutdown)
	if err := u.Start(); err != nil {
		t.Fatalf("ue Start: %v", err)
	}
	return u
}

func ueConfig(id, relayAddr, serverAddr string, period, expiry time.Duration) UEClientConfig {
	return UEClientConfig{
		ID: id, Apps: []UEApp{{Name: "std", Period: period, Expiry: expiry, Pad: 54}},
		RelayAddr: relayAddr, ServerAddr: serverAddr,
	}
}

func TestServerDirectHeartbeat(t *testing.T) {
	s := startServer(t, loopback{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	hb := &hbproto.Heartbeat{
		Src: "ue-x", Seq: 1, App: "std",
		Origin: time.Now(), Expiry: time.Minute, Pad: 54,
	}
	if err := hbprototest.WriteFrame(conn, hb); err != nil {
		t.Fatalf("write: %v", err)
	}
	msg, err := hbprototest.ReadFrame(conn)
	if err != nil {
		t.Fatalf("read ack: %v", err)
	}
	ack, ok := msg.(*hbproto.Ack)
	if !ok || len(ack.Refs) != 1 || ack.Refs[0] != (hbproto.Ref{Src: "ue-x", Seq: 1}) {
		t.Fatalf("ack = %+v", msg)
	}
	if !s.Online("ue-x", time.Now()) {
		t.Fatal("client not online after heartbeat")
	}
	if s.Online("ue-x", time.Now().Add(2*time.Minute)) {
		t.Fatal("client online past expiry")
	}
	st := s.Stats()
	if st.HeartbeatsDirect != 1 || st.Connections != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerRegisterAndExpiry(t *testing.T) {
	s := startServer(t, loopback{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := hbprototest.WriteFrame(conn, &hbproto.Register{
		ID: "ue-y", Role: hbproto.RoleUE, App: "std",
		Period: time.Minute, Expiry: time.Minute,
	}); err != nil {
		t.Fatalf("write: %v", err)
	}
	eventually(t, time.Second, func() bool { return s.Stats().Registers == 1 }, "register counted")
	if !s.Online("ue-y", time.Now()) {
		t.Fatal("registered client not online")
	}
	if got := s.OnlineCount(time.Now()); got != 1 {
		t.Fatalf("online count = %d, want 1", got)
	}
}

func TestServerRejectsProtocolViolation(t *testing.T) {
	s := startServer(t, loopback{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// An Ack from a client is a protocol violation: server drops the conn.
	if err := hbprototest.WriteFrame(conn, &hbproto.Ack{}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatalf("deadline: %v", err)
	}
	if _, err := hbprototest.ReadFrame(conn); err == nil {
		t.Fatal("connection survived protocol violation")
	}
}

func TestServerCountsProtocolErrors(t *testing.T) {
	var rec trace.Recorder
	s := NewServer()
	s.SetTracer(&rec)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("server Start: %v", err)
	}
	t.Cleanup(s.Shutdown)

	// Garbage bytes: the framer rejects the magic and the server counts a
	// protocol error and emits a conn-drop trace event.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := conn.Write([]byte("not a heartbeat frame at all")); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = conn.Close()
	eventually(t, time.Second, func() bool { return s.Stats().ProtocolErrors == 1 }, "garbage counted")

	// A well-framed message a client may not send (Ack) is also a protocol
	// error.
	conn2, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn2.Close()
	if err := hbprototest.WriteFrame(conn2, &hbproto.Ack{}); err != nil {
		t.Fatalf("write: %v", err)
	}
	eventually(t, time.Second, func() bool { return s.Stats().ProtocolErrors == 2 }, "ack-from-client counted")

	eventually(t, time.Second, func() bool {
		return len(rec.ByKind(trace.KindConnDrop)) >= 2
	}, "conn-drop trace events emitted")
	for _, ev := range rec.ByKind(trace.KindConnDrop) {
		if ev.Reason == "" || ev.Device == "" {
			t.Fatalf("conn-drop event missing detail: %+v", ev)
		}
	}
	if st := s.Stats(); st.IdleDrops != 0 {
		t.Fatalf("idle drops = %d, want 0", st.IdleDrops)
	}
}

func TestServerReapsIdleConnections(t *testing.T) {
	var rec trace.Recorder
	s := NewServer()
	s.SetTracer(&rec)
	s.SetIdleTimeout(150 * time.Millisecond)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("server Start: %v", err)
	}
	t.Cleanup(s.Shutdown)

	// The client sends one valid heartbeat, gets its ack, then stalls.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	hb := &hbproto.Heartbeat{
		Src: "ue-stall", Seq: 1, App: "std",
		Origin: time.Now(), Expiry: time.Minute, Pad: 54,
	}
	if err := hbprototest.WriteFrame(conn, hb); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := hbprototest.ReadFrame(conn); err != nil {
		t.Fatalf("read ack: %v", err)
	}

	// The idle deadline fires and the server drops the connection.
	eventually(t, 2*time.Second, func() bool { return s.Stats().IdleDrops == 1 }, "idle drop counted")
	if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatalf("deadline: %v", err)
	}
	if _, err := hbprototest.ReadFrame(conn); err == nil {
		t.Fatal("connection survived idle reaping")
	}
	drops := rec.ByKind(trace.KindConnDrop)
	if len(drops) != 1 || drops[0].Reason != "idle-timeout" {
		t.Fatalf("conn-drop events = %+v", drops)
	}
	if st := s.Stats(); st.ProtocolErrors != 0 || st.HeartbeatsDirect != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEndToEndRelaying runs the full pipeline: two UEs forward through a
// relay; the relay batches under Algorithm 1 and the server acks trigger
// feedback. The UEs and the relay share the paper's 270 s period, so at 45
// minutes the first UE has sent 11 heartbeats (0, 270 s, …, 2 700 s) and
// the second 10, and the relay has flushed all but the last in ten
// batches, each with its own heartbeat: 30 relayed, and 10 fed back to
// each UE. The scenario runs twice, in two bubbles, and both runs must end
// with the same stats at that instant.
func TestEndToEndRelaying(t *testing.T) {
	type snapshot struct {
		server ServerStats
		relay  RelayAgentStats
		ues    [2]UEClientStats
	}
	var runs []snapshot
	for range 2 {
		timed(t, func(t *testing.T, nw network) {
			s := startServer(t, nw)
			var (
				period = 270 * time.Second
				expiry = 300 * time.Second // > period: presence stays stable
				end    = 45 * time.Minute
			)
			r := startRelay(t, nw, s.Addr(), period, expiry, 8)
			// The second UE starts 10 s after the first, so no
			// two heartbeats reach the relay at one instant: each batch has
			// one order, and so has the server's ID guessing.
			ues := make([]*UEClient, 0, 2)
			for i, id := range []string{"ue-1", "ue-2"} {
				if i > 0 {
					time.Sleep(10 * time.Second)
				}
				ues = append(ues, startUE(t, nw, ueConfig(id, r.Addr(), s.Addr(), period, expiry)))
			}

			// Within a few periods every component has turned over.
			await(t, end, func() bool {
				return s.Stats().HeartbeatsRelayed == 30
			}, "server received relayed heartbeats")
			await(t, end, func() bool {
				return ues[0].Stats().FeedbackAcks == 10 && ues[1].Stats().FeedbackAcks == 10
			}, "UEs received feedback")

			st := s.Stats()
			if st.Batches != 10 {
				t.Fatalf("%d batches at server", st.Batches)
			}
			rs := r.Stats()
			if rs.Collected == 0 || rs.Flushes == 0 || rs.ForwardedSent == 0 {
				t.Fatalf("relay stats empty: %+v", rs)
			}
			if rs.Credits != rs.ForwardedSent {
				t.Fatalf("credits %d != forwarded %d", rs.Credits, rs.ForwardedSent)
			}
			// Both UEs online at the server.
			if !s.Online("ue-1", time.Now()) || !s.Online("ue-2", time.Now()) {
				t.Fatal("UEs not online via relay")
			}
			// UEs went through the relay, not direct.
			for i, u := range ues {
				us := u.Stats()
				if us.ViaRelay != uint32(11-i) {
					t.Fatalf("ue %d never used relay: %+v", i, us)
				}
				if us.Direct != 0 {
					t.Fatalf("ue %d sent direct despite relay: %+v", i, us)
				}
			}
			// Aggregation actually happened: fewer server connections than
			// heartbeats (2 UEs + relay share one upstream pipe).
			if st.Connections > 3 {
				t.Fatalf("connections = %d, want <= 3", st.Connections)
			}
			runs = append(runs, snapshot{st, rs, [2]UEClientStats{ues[0].Stats(), ues[1].Stats()}})
		})
	}
	// Evidence, not proof: a bubble fixes the instants, not the order of
	// the goroutines that run at one instant.
	if len(runs) == 2 && runs[0] != runs[1] {
		t.Errorf("two runs ended at the same instant with different stats:\n%+v\n%+v", runs[0], runs[1])
	}
}

// TestUEDirectModeWithoutRelay: a UE with no relay sends straight to the
// server — in the bubble at 0 and 270 s.
func TestUEDirectModeWithoutRelay(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		s := startServer(t, nw)
		period := 270 * time.Second
		u := startUE(t, nw, ueConfig("ue-d", "", s.Addr(), period, 300*time.Second))
		await(t, period, func() bool {
			return s.Stats().HeartbeatsDirect == 2
		}, "direct heartbeats arrived")
		if got := u.Stats(); got.ViaRelay != 0 || got.Direct != 2 {
			t.Fatalf("stats = %+v", got)
		}
		if !s.Online("ue-d", time.Now()) {
			t.Fatal("direct UE not online")
		}
	})
}

// TestUEFallbackWhenRelayDies: the relay dies holding the UE's first
// heartbeat. In the bubble, on the device rule's 305 s window: the second
// heartbeat goes direct at 270 s, the first falls back on the grid instant
// after its window lapses, and the server has both.
func TestUEFallbackWhenRelayDies(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		s := startServer(t, nw)
		var (
			period = 270 * time.Second
			expiry = 300 * time.Second
		)
		r := startRelay(t, nw, s.Addr(), period, expiry, 8)

		u := startUE(t, nw, ueConfig("ue-f", r.Addr(), s.Addr(), period, expiry))

		await(t, 0, func() bool { return u.Stats().ViaRelay == 1 }, "first forward")
		r.Shutdown() // the relay dies with heartbeats potentially pending

		// The UE times out on feedback and resends directly; later heartbeats
		// go direct because the relay conn is gone.
		lapsed := u.window(0) + sendGrain
		await(t, lapsed, func() bool {
			st := u.Stats()
			return st.FallbackResends+st.Direct == 2
		}, "fallback to direct after relay death")
		await(t, lapsed, func() bool {
			return s.Online("ue-f", time.Now())
		}, "UE back online via direct path")
	})
}

// TestRelayCapacityFlushImmediately: a relay of capacity 1 flushes each
// heartbeat it collects at once and refuses the rest of its period. In the
// bubble the UE sends three times a relay period (90 s against 270 s):
// by the period's end its first heartbeat has gone in a capacity flush,
// with the relay's own, and the next two have been refused by the closed
// window.
func TestRelayCapacityFlushImmediately(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		s := startServer(t, nw)
		// Capacity 1: every collected heartbeat flushes at once.
		period := 270 * time.Second
		r := startRelay(t, nw, s.Addr(), period, 300*time.Second, 1)
		startUE(t, nw, ueConfig("ue-c", r.Addr(), s.Addr(), 90*time.Second, 300*time.Second))
		end := period - time.Second // before the next window opens
		await(t, end, func() bool { return r.Stats().Flushes == 1 }, "capacity flush")
		await(t, end, func() bool { return r.Stats().FlushesByCapacity == 1 }, "flush counted under its capacity reason")
		// The window's one heartbeat and the relay's own.
		await(t, end, func() bool { return s.Stats().HeartbeatsRelayed == 2 }, "relayed heartbeat arrived")
		// Subsequent forwards in the same relay period are rejected (window
		// closed) and recovered by fallback.
		await(t, end, func() bool { return r.Stats().RejectedClosed == 2 }, "closed-window rejection")
	})
}

// TestRelayPeriodBoundaryNeverRejects sends heartbeats with Expiry ==
// Period just behind every period boundary, where they queue up with the
// two timers that fall on the same instant. A period-end flush must open
// the next window in the same step, and the boundary must stay on the
// start + k·Period grid instead of sliding into the senders' phase: no
// heartbeat may be offered to a closed scheduler.
func TestRelayPeriodBoundaryNeverRejects(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		const (
			boundaries = 25
			ues        = 8
		)
		period := 270 * time.Second
		s := startServer(t, nw)
		r := startRelay(t, nw, s.Addr(), period, period, 256)
		await(t, 0, func() bool { return r.Stats().OwnHeartbeats == 1 }, "relay running")
		start := r.epoch // written before the first period's stats update, read after it

		var wg sync.WaitGroup
		for i := 0; i < ues; i++ {
			conn, err := nw.Dial("tcp", r.Addr())
			if err != nil {
				t.Fatalf("dial relay: %v", err)
			}
			t.Cleanup(func() { _ = conn.Close() })
			go drain(conn) // the relay's feedback writes must not back up
			id := fmt.Sprintf("ue-b%d", i)
			if err := hbprototest.WriteFrame(conn, &hbproto.Register{ID: id, Role: hbproto.RoleUE, App: "std", Period: period, Expiry: period}); err != nil {
				t.Fatalf("register: %v", err)
			}
			phase := time.Duration(i+1) * 250 * time.Microsecond // 0.25 ms … 2 ms behind the boundary
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 1; k <= boundaries; k++ {
					time.Sleep(time.Until(start.Add(time.Duration(k)*period + phase)))
					hb := &hbproto.Heartbeat{Src: id, Seq: uint64(k), App: "std", Origin: time.Now(), Expiry: period, Pad: 54}
					if err := hbprototest.WriteFrame(conn, hb); err != nil {
						t.Errorf("%s send %d: %v", id, k, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		await(t, boundaries*period+period/2, func() bool {
			st := r.Stats()
			return st.Collected+st.RejectedClosed+st.RejectedExpired == ues*boundaries
		}, "every heartbeat reached the scheduler")
		if st := r.Stats(); st.RejectedClosed != 0 || st.Collected != ues*boundaries {
			t.Fatalf("collected %d of %d, %d offered to a closed window, %d expired",
				st.Collected, ues*boundaries, st.RejectedClosed, st.RejectedExpired)
		}
	})
}

// TestRelayBoundaryBelongsToTheKernel plays the runner's advance-then-
// handle step with explicit instants, no sleeps. A UE heartbeat handled
// after a boundary whose wall tick has not arrived yet is collected into
// the new window, because the kernel runs the boundary first; a tick with
// nothing due — early, or the late tick of a boundary already run — changes
// nothing; and the next boundary stays on the k·Period grid.
func TestRelayBoundaryBelongsToTheKernel(t *testing.T) {
	const period = 100 * time.Millisecond
	r := steppedRelay(t, RelayAgentConfig{
		ID: "relay-1", App: "std", Period: period, Expiry: period, Pad: 54, Capacity: 1,
		Dial: func(string, string) (net.Conn, error) { return nil, errors.New("no shard") },
	}, "shard-0")
	uc := &ueConn{}
	beat := func(at time.Duration, seq uint64) {
		r.step(beatAt(at, uc, hbproto.Heartbeat{
			Src: "ue-1", Seq: seq, App: "std", Origin: time.Now(), Expiry: period, Pad: 54,
		}))
	}
	tick := func(at time.Duration) { r.step(&input{at: at}) }
	ms := time.Millisecond

	tick(0)
	beat(10*ms, 1) // M = 1: collected, flushed at once, window closed
	beat(20*ms, 2) // refused until the boundary
	st := r.relay.Stats()
	if st.OwnHeartbeats != 1 || st.Collected != 1 || st.RejectedClosed != 1 || st.SendErrors != 1 {
		t.Fatalf("first period: %+v, want one collect, one capacity flush (no shard takes it), one closed-window reject", st)
	}
	tick(50 * ms)
	if got := r.relay.Stats(); got != st {
		t.Fatalf("a tick with nothing due changed the relay: %+v, was %+v", got, st)
	}
	beat(period+ms, 3)
	st = r.relay.Stats()
	if st.OwnHeartbeats != 2 || st.Collected != 2 || st.RejectedClosed != 1 {
		t.Fatalf("heartbeat behind the boundary: %+v, want it collected into the second period", st)
	}
	tick(period + 2*ms) // the boundary's own tick, late
	if got := r.relay.Stats(); got != st {
		t.Fatalf("the late tick of a boundary already run changed the relay: %+v, was %+v", got, st)
	}
	if at, ok := r.kernel.NextAt(); !ok || at != 2*period {
		t.Fatalf("next kernel action at %v (%v), want the boundary at %v", at, ok, 2*period)
	}
}

// TestRelayKeepsItsLiveWireAndTrace: the relay's own heartbeat leaves with
// the configured App, Expiry and Pad — not the profile the relay runs on,
// whose size cannot be 0 and whose expiry factor does not survive 61/7 in
// floating point — trace events carry Unix milliseconds, and the relay's
// /metrics names keep counting.
func TestRelayKeepsItsLiveWireAndTrace(t *testing.T) {
	const period, expiry = 7 * time.Millisecond, 61 * time.Millisecond
	shard, dialed := net.Pipe()
	t.Cleanup(func() { _ = shard.Close() })
	var rec trace.Recorder
	reg := telemetry.NewRegistry()
	r := steppedRelay(t, RelayAgentConfig{
		ID: "relay-1", App: "std", Period: period, Expiry: expiry, Capacity: 8,
		Tracer: &rec, Telemetry: reg,
		Dial: func(string, string) (net.Conn, error) { return dialed, nil },
	}, "shard-0")
	batches := make(chan []hbproto.Heartbeat, 1)
	go func() { // the shard: hand over the first batch
		fr := hbproto.NewFrameReader(shard)
		for {
			msg, err := fr.Next()
			if err != nil {
				return
			}
			if b, ok := msg.(*hbproto.Batch); ok {
				batches <- append([]hbproto.Heartbeat(nil), b.HBs...)
			}
		}
	}()

	r.step(&input{at: 0})
	r.step(beatAt(time.Millisecond, &ueConn{}, hbproto.Heartbeat{
		Src: "ue-1", Seq: 4, App: "std", Origin: time.Now(), Expiry: time.Minute, Pad: 54,
	}))
	r.step(&input{at: period})
	var batch []hbproto.Heartbeat
	select {
	case batch = <-batches:
	case <-time.After(5 * time.Second):
		t.Fatal("no batch reached the shard")
	}
	if len(batch) != 2 || batch[0].Src != "ue-1" || batch[0].Expiry != time.Minute || batch[0].Pad != 54 {
		t.Fatalf("batch = %+v, want ue-1's heartbeat as sent, then the relay's own", batch)
	}
	if own := batch[1]; own.Src != "relay-1" || own.Seq != 1 || own.App != "std" || own.Expiry != expiry || own.Pad != 0 {
		t.Fatalf("own heartbeat on the wire = %+v, want relay-1/1 with App std, Expiry %v, Pad 0", own, expiry)
	}
	for kind, at := range map[trace.Kind]time.Duration{trace.KindCollect: time.Millisecond, trace.KindFlush: period} {
		evs := rec.ByKind(kind)
		if want := trace.Unix(r.epoch.Add(at)); len(evs) != 1 || evs[0].At != want {
			t.Fatalf("%s events %+v, want one at Unix instant %d", kind, evs, want)
		}
	}
	rl := telemetry.L("relay", "relay-1")
	if n := reg.Histogram("relaynet_relay_collect_to_flush_us", "us", 1, rl).Snapshot().Count(); n != 1 {
		t.Fatalf("relaynet_relay_collect_to_flush_us holds %d samples, want 1", n)
	}
}

// TestRelayFlushReasonsOnMetrics: the relay agent's window counts its
// flushes by reason on sched_flushes_total, and the counts are the relay's
// own FlushesBy*, plus the baselines' ReasonPolicy, which Algorithm 1 never
// gives: one flush at capacity, one at a heartbeat's deadline, one at a
// period end that carries only the relay's own heartbeat.
func TestRelayFlushReasonsOnMetrics(t *testing.T) {
	const period, ms = time.Minute, time.Millisecond
	shard, dialed := net.Pipe()
	t.Cleanup(func() { _ = shard.Close() })
	go drain(shard)
	reg := telemetry.NewRegistry()
	r := steppedRelay(t, RelayAgentConfig{
		ID: "relay-1", App: "std", Period: period, Expiry: period, Capacity: 2, Telemetry: reg,
		Dial: func(string, string) (net.Conn, error) { return dialed, nil },
	}, "shard-0")
	uc := &ueConn{}
	beat := func(at time.Duration, seq uint64, expiry time.Duration) {
		r.step(beatAt(at, uc, hbproto.Heartbeat{
			Src: "ue-1", Seq: seq, App: "std", Origin: time.Now(), Expiry: expiry, Pad: 54,
		}))
	}
	r.step(&input{at: 0, kind: inRegister, ue: uc})
	beat(ms, 1, period)
	beat(2*ms, 2, period) // M = 2: a capacity flush
	r.step(&input{at: period})
	beat(period+ms, 3, 10*ms)
	r.step(&input{at: period + 20*ms}) // its deadline passed: a deadline flush
	r.step(&input{at: 2 * period})
	r.step(&input{at: 3 * period}) // nothing collected: the own heartbeat alone

	st := r.relay.Stats()
	want := map[string]int{
		"capacity": st.FlushesByCapacity, "deadline": st.FlushesByDeadline,
		"period-end": st.FlushesByPeriodEnd, "policy": st.Flushes - st.FlushesByCapacity - st.FlushesByDeadline - st.FlushesByPeriodEnd,
	}
	if want["capacity"] != 1 || want["deadline"] != 1 || want["period-end"] != 1 || want["policy"] != 0 {
		t.Fatalf("relay stats = %+v, want one flush each at capacity, deadline and period end", st)
	}
	rl, kl := telemetry.L("relay", "relay-1"), telemetry.L("policy", "nagle")
	for reason, n := range want {
		if got := reg.Counter("sched_flushes_total", telemetry.L("reason", reason), rl, kl).Value(); got != uint64(n) {
			t.Errorf("sched_flushes_total{reason=%q} = %d, relay counted %d", reason, got, n)
		}
	}
}

// TestRelayLostFlushForgetsFeedbackRoutes: a flush no shard takes leaves
// no feedback route behind — its UEs fall back on their own, and the table
// does not grow with every batch the relay could not deliver.
func TestRelayLostFlushForgetsFeedbackRoutes(t *testing.T) {
	r := steppedRelay(t, RelayAgentConfig{
		ID: "relay-1", App: "std", Period: time.Minute, Expiry: time.Minute, Pad: 54, Capacity: 2,
	}, "127.0.0.1:1")
	uc := &ueConn{}
	r.step(&input{at: 0, kind: inRegister, ue: uc})
	for seq := uint64(1); seq <= 2; seq++ { // the second fills M: a capacity flush
		r.step(beatAt(time.Duration(seq)*time.Millisecond, uc, hbproto.Heartbeat{
			Src: "ue-1", Seq: seq, App: "std", Origin: time.Now(), Expiry: time.Minute, Pad: 54,
		}))
	}
	if n := r.relay.Awaiting(); n != 0 {
		t.Fatalf("%d feedback routes left after a flush no shard took", n)
	}
	if st := r.relay.Stats(); st.SendErrors != 1 || st.Flushes != 0 || st.ForwardedSent != 0 {
		t.Fatalf("relay stats = %+v, want one failed flush and nothing forwarded", st)
	}
	if got := r.Stats().DroppedNoShard; got != 3 {
		t.Fatalf("dropped %d heartbeats, want both collected and the own", got)
	}
}

// routeBound is a relay's tracer that checks, at every collect, that the
// relay holds no more feedback routes than it collected over the last
// span: a route lives until the first period boundary past its UE's ack
// window, so span is that window plus one period. It runs on the relay's
// runner, which owns the relay's state.
type routeBound struct {
	r    *RelayAgent
	span time.Duration

	mu       sync.Mutex
	collects []time.Duration // kernel instants, in order
	peak     int             // the most routes held
	excess   int             // the most routes held above the bound
}

func (b *routeBound) Emit(ev trace.Event) {
	if ev.Kind != trace.KindCollect {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.r.kernel.Now()
	b.collects = append(b.collects, now)
	recent := len(b.collects) - sort.Search(len(b.collects), func(i int) bool { return b.collects[i] > now-b.span })
	// The collected heartbeat's route is added after its event.
	held := b.r.relay.Awaiting() + 1
	b.peak, b.excess = max(b.peak, held), max(b.excess, held-recent)
}

// TestRelayRoutesLapseWithoutAcks runs eight UEs through a relay whose one
// shard reads every batch and never acknowledges one. Each UE falls back
// when its ack window lapses, so a route kept past that window can never
// feed back: the relay holds no more routes than it collected in one
// window plus one period, and once the UEs stop, every route it collected
// expires. In the bubble the UEs send 11
// heartbeats each (0 to 2 700 s) and stop at 46 minutes; the last routes
// expire at the boundary past their 305 s windows, 3 240 s.
func TestRelayRoutesLapseWithoutAcks(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		const ues = 8
		var (
			period = 270 * time.Second
			expiry = 300 * time.Second
		)
		shard, _ := listenHeartbeats(t, nw, false)
		srv := startServer(t, nw)
		bound := &routeBound{span: device.FeedbackWindow(0, expiry) + period}
		r, err := NewRelayAgent(RelayAgentConfig{
			ID: "relay-1", App: "std", Period: period, Expiry: expiry, Pad: 54, Capacity: 2 * ues,
			Tracer: bound, Listen: nw.Listen, Dial: nw.Dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		bound.r = r
		if err := r.Start("127.0.0.1:0", shard); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Shutdown)
		clients := make([]*UEClient, ues)
		for i := range clients {
			clients[i] = startUE(t, nw, ueConfig(fmt.Sprintf("ue-%d", i), r.Addr(), srv.Addr(), period, expiry))
		}
		time.Sleep(46 * time.Minute)
		for _, u := range clients {
			u.Shutdown()
		}
		bound.mu.Lock()
		peak, excess := bound.peak, bound.excess
		bound.mu.Unlock()
		t.Logf("collected %d heartbeats, held at most %d routes", r.Stats().Collected, peak)
		if excess > 0 {
			t.Errorf("the relay held up to %d feedback routes more than it collected in one window plus one period", excess)
		}
		if st := r.Stats(); st.Collected != ues*11 || st.AcksSent != 0 {
			t.Fatalf("relay stats %+v: want every UE's heartbeats collected and none acknowledged", st)
		}
		await(t, 12*period, func() bool {
			st := r.Stats()
			return st.Routes == 0 && st.RoutesExpired == st.Collected
		}, "every collected route expires once its window lapses")
	})
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewRelayAgent(RelayAgentConfig{}); err == nil {
		t.Fatal("empty relay config accepted")
	}
	if _, err := NewRelayAgent(RelayAgentConfig{ID: "r", Period: time.Second, Expiry: time.Second}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewUEClient(UEClientConfig{}); err == nil {
		t.Fatal("empty ue config accepted")
	}
	if _, err := NewUEClient(UEClientConfig{ID: "u", Apps: []UEApp{{Period: time.Second, Expiry: time.Second}}}); err == nil {
		t.Fatal("missing server addr accepted")
	}
}

func TestLifecycleIdempotence(t *testing.T) {
	s := NewServer()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := s.Start("127.0.0.1:0"); err == nil {
		t.Fatal("double server start accepted")
	}
	s.Shutdown()
	s.Shutdown() // idempotent

	r, err := NewRelayAgent(RelayAgentConfig{
		ID: "r", App: "a", Period: time.Second, Expiry: time.Second, Pad: 54, Capacity: 1,
	})
	if err != nil {
		t.Fatalf("NewRelayAgent: %v", err)
	}
	r.Shutdown() // not started: no-op

	u, err := NewUEClient(UEClientConfig{
		ID: "u", Apps: []UEApp{{Name: "a", Period: time.Second, Expiry: time.Second}}, ServerAddr: "127.0.0.1:1",
	})
	if err != nil {
		t.Fatalf("NewUEClient: %v", err)
	}
	u.Shutdown() // not started: no-op
}

// TestRelayStartsWithoutServerUEFallback pins the lazy upstream: a relay
// whose server is unreachable still starts, counts the heartbeats it
// cannot deliver, and its UE gets them through by the cellular fallback.
// In the bubble the relay drops its first window, the UE's heartbeat and
// its own, at 270 s, and the UE falls back on the grid instant after its
// 305 s window.
func TestRelayStartsWithoutServerUEFallback(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		s := startServer(t, nw)
		period := 270 * time.Second
		expiry := 300 * time.Second
		r := startRelay(t, nw, "127.0.0.1:1", period, expiry, 4)
		u := startUE(t, nw, ueConfig("ue-lazy", r.Addr(), s.Addr(), time.Hour, expiry))

		await(t, period, func() bool { return r.Stats().DroppedNoShard == 2 },
			"relay counts the batch it could not deliver")
		lapsed := u.window(0) + sendGrain
		await(t, lapsed, func() bool { return u.Stats().FallbackResends == 1 },
			"UE falls back after no feedback")
		await(t, lapsed, func() bool { return s.Online("ue-lazy", time.Now()) },
			"UE online via the fallback copy")
		if st := r.Stats(); st.ShardDials != 0 || st.AcksSent != 0 {
			t.Fatalf("relay stats = %+v, want no dial and no feedback", st)
		}

		empty, err := NewRelayAgent(RelayAgentConfig{
			ID: "r", App: "a", Period: time.Second, Expiry: time.Second, Pad: 54, Capacity: 1,
			Listen: nw.Listen,
		})
		if err != nil {
			t.Fatalf("NewRelayAgent: %v", err)
		}
		if err := empty.Start("127.0.0.1:0", ""); err == nil {
			empty.Shutdown()
			t.Fatal("relay started with neither a server nor a cluster")
		}
	})
}

// TestUEReconnectsWhenRelayAppearsLater: a UE whose relay is not up yet
// sends direct, and uses the relay once it comes up. In the bubble the
// first heartbeat goes direct at 0, the relay starts then, and the second
// goes through it at 270 s, on the UE's first relay connection.
func TestUEReconnectsWhenRelayAppearsLater(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		s := startServer(t, nw)
		var (
			period = 270 * time.Second
			expiry = 300 * time.Second
		)
		// Reserve an address for the relay, then release it so the UE's first
		// dials fail.
		ln, err := nw.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		relayAddr := ln.Addr().String()
		_ = ln.Close()

		u := startUE(t, nw, ueConfig("ue-r", relayAddr, s.Addr(), period, expiry))

		// Without a relay the UE goes direct.
		await(t, 0, func() bool { return u.Stats().Direct == 1 }, "direct sends before relay exists")

		// The relay comes up on the reserved address; the UE re-matches.
		r, err := NewRelayAgent(RelayAgentConfig{
			ID: "relay-l", App: "std", Period: period, Expiry: expiry, Pad: 54, Capacity: 8,
			Listen: nw.Listen, Dial: nw.Dial,
		})
		if err != nil {
			t.Fatalf("NewRelayAgent: %v", err)
		}
		if err := r.Start(relayAddr, s.Addr()); err != nil {
			t.Skipf("reserved address no longer available: %v", err)
		}
		t.Cleanup(r.Shutdown)

		await(t, period, func() bool { return u.Stats().ViaRelay == 1 }, "UE switched to relay")
		if got := u.Stats().RelayReconnects; got != 1 {
			t.Fatalf("reconnects = %d, want exactly 1", got)
		}
	})
}

// TestUEMultiAppHeartbeats is the Message Monitor analog: two registered
// apps on one device, both relayed and acknowledged over the shared link.
// In the bubble they are WeChat-like (270 s) and WhatsApp-like (240 s): by
// 270 s each has sent two heartbeats, and the relay's first window, flushed
// then, has carried three of them to the server and back.
func TestUEMultiAppHeartbeats(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		s := startServer(t, nw)
		var (
			period = 270 * time.Second
			expiry = 300 * time.Second
		)
		r := startRelay(t, nw, s.Addr(), period, expiry, 8)
		cfg := ueConfig("ue-m", r.Addr(), s.Addr(), period, expiry)
		cfg.Apps = append(cfg.Apps, UEApp{Name: "second", Period: 240 * time.Second, Expiry: expiry, Pad: 100})
		u := startUE(t, nw, cfg)

		await(t, period, func() bool { return u.Stats().ViaRelay == 4 }, "both apps forwarding")
		await(t, period, func() bool { return u.Stats().FeedbackAcks == 3 }, "acks for both apps")
		if got := u.Stats().Direct; got != 0 {
			t.Fatalf("direct = %d with live relay", got)
		}
		if !s.Online("ue-m", time.Now()) {
			t.Fatal("multi-app UE not online")
		}
	})
}

func TestUEMultiAppValidation(t *testing.T) {
	cfg := ueConfig("u", "", "127.0.0.1:1", time.Second, time.Second)
	cfg.Apps = append(cfg.Apps, UEApp{Name: "bad"})
	if _, err := NewUEClient(cfg); err == nil {
		t.Fatal("invalid extra app accepted")
	}
}

func TestRealStackTracing(t *testing.T) {
	var rec trace.Recorder
	s := NewServer()
	s.SetTracer(&rec)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("server Start: %v", err)
	}
	t.Cleanup(s.Shutdown)

	const (
		period = 100 * time.Millisecond
		expiry = 200 * time.Millisecond
	)
	r, err := NewRelayAgent(RelayAgentConfig{
		ID: "relay-t", App: "std", Period: period, Expiry: expiry, Pad: 54,
		Capacity: 8, Tracer: &rec,
	})
	if err != nil {
		t.Fatalf("NewRelayAgent: %v", err)
	}
	if err := r.Start("127.0.0.1:0", s.Addr()); err != nil {
		t.Fatalf("relay Start: %v", err)
	}
	t.Cleanup(r.Shutdown)

	cfg := ueConfig("ue-t", r.Addr(), s.Addr(), period, expiry)
	cfg.Tracer = &rec
	u, err := NewUEClient(cfg)
	if err != nil {
		t.Fatalf("NewUEClient: %v", err)
	}
	if err := u.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(u.Shutdown)

	eventually(t, 3*time.Second, func() bool {
		return len(rec.ByKind(trace.KindAck)) >= 1 && len(rec.ByKind(trace.KindDelivery)) >= 2
	}, "traced lifecycle events")

	for _, kind := range []trace.Kind{
		trace.KindGenerated, trace.KindD2DSend, trace.KindCollect,
		trace.KindFlush, trace.KindDelivery, trace.KindAck,
	} {
		if len(rec.ByKind(kind)) == 0 {
			t.Errorf("no %s events traced", kind)
		}
	}
	// Delay analysis over the real stack: relayed deliveries match
	// generation events by (device, seq).
	a := trace.Analyze(rec.Events())
	if a.Relayed.Count == 0 {
		t.Fatalf("no relayed delays computed: %v", rec.String())
	}
	if a.Relayed.MaxMs > float64(2*period/time.Millisecond)+100 {
		t.Errorf("relayed delay %v ms implausibly large", a.Relayed.MaxMs)
	}
}
