package relaynet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/telemetry"
)

// TestServerCountersConcurrent hammers touch from goroutines bound to
// different stats stripes — with client IDs spanning every presence shard —
// while Stats, OnlineCount and Online poll concurrently. Run under
// -race this pins the lock-free counter design: no lost increments, and
// totals that only grow.
func TestServerCountersConcurrent(t *testing.T) {
	s := NewServer()
	const (
		workers   = 16
		perWorker = 2000
	)
	now := time.Now()

	stop := make(chan struct{})
	var pollWg sync.WaitGroup
	// Pollers: Stats totals must be monotonic while writers run.
	pollWg.Add(1)
	go func() {
		defer pollWg.Done()
		var prev ServerStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			if st.HeartbeatsDirect < prev.HeartbeatsDirect ||
				st.HeartbeatsRelayed < prev.HeartbeatsRelayed ||
				st.Batches < prev.Batches || st.Late < prev.Late {
				t.Errorf("Stats went backwards: %+v then %+v", prev, st)
				return
			}
			prev = st
		}
	}()
	pollWg.Add(1)
	go func() {
		defer pollWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.OnlineCount(time.Now())
			_ = s.Online("worker-0-client-0", time.Now())
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker gets its own stripe, like connections do; IDs mix
			// worker and sequence so they scatter across presence shards.
			cs := &connState{cc: &s.stripes[w%statsStripeCount]}
			relayed := w%2 == 1
			for i := 0; i < perWorker; i++ {
				hb := &hbproto.Heartbeat{
					Src: fmt.Sprintf("worker-%d-client-%d", w, i%97),
					Seq: uint64(i + 1), App: "test",
					Origin: now, Expiry: time.Hour,
				}
				s.touch(cs, hb, now, relayed)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	pollWg.Wait()

	st := s.Stats()
	wantEach := workers / 2 * perWorker
	if st.HeartbeatsDirect != wantEach {
		t.Errorf("direct = %d, want %d (lost increments)", st.HeartbeatsDirect, wantEach)
	}
	if st.HeartbeatsRelayed != wantEach {
		t.Errorf("relayed = %d, want %d (lost increments)", st.HeartbeatsRelayed, wantEach)
	}
	if st.Late != 0 {
		t.Errorf("late = %d, want 0 (hour-long expiries)", st.Late)
	}
	// 16 workers × 97 distinct IDs, all with hour-long deadlines.
	if got, want := s.OnlineCount(time.Now()), workers*97; got != want {
		t.Errorf("OnlineCount = %d, want %d", got, want)
	}
}

// TestServerLateCounting pins the late path: a heartbeat past its own
// deadline still resets presence but counts late.
func TestServerLateCounting(t *testing.T) {
	s := NewServer()
	now := time.Now()
	hb := &hbproto.Heartbeat{
		Src: "late-ue", Seq: 1, App: "test",
		Origin: now.Add(-2 * time.Second), Expiry: time.Second,
	}
	s.touch(&connState{cc: &s.stripes[0]}, hb, now, false)
	st := s.Stats()
	if st.Late != 1 || st.HeartbeatsDirect != 1 {
		t.Fatalf("late=%d direct=%d, want 1,1", st.Late, st.HeartbeatsDirect)
	}
	if !s.Online("late-ue", now) {
		t.Fatal("late heartbeat must still reset the presence timer")
	}
}

// populateServer fills every stats stripe and presence shard so the
// benchmarks measure realistic sweep costs, not empty-map walks.
func populateServer(b *testing.B, clients int) *Server {
	b.Helper()
	s := NewServer()
	now := time.Now()
	for i := 0; i < clients; i++ {
		hb := &hbproto.Heartbeat{
			Src: fmt.Sprintf("bench-client-%05d", i), Seq: 1, App: "bench",
			Origin: now, Expiry: time.Hour,
		}
		s.touch(&connState{cc: &s.stripes[i%statsStripeCount]}, hb, now, i%2 == 0)
	}
	return s
}

// BenchmarkServerStats guards the satellite fix of this PR: Stats must stay
// a fixed-size stripe sum (no lock, no per-connection sweep) so telemetry
// can poll it. Before the stripe refactor this held the server mutex and
// walked every live connection.
func BenchmarkServerStats(b *testing.B) {
	s := populateServer(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := s.Stats()
		if st.HeartbeatsDirect+st.HeartbeatsRelayed == 0 {
			b.Fatal("empty stats")
		}
	}
}

func BenchmarkServerOnlineCount(b *testing.B) {
	s := populateServer(b, 10000)
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := s.OnlineCount(now); n == 0 {
			b.Fatal("no clients online")
		}
	}
}

func BenchmarkServerTouch(b *testing.B) {
	s := NewServer()
	now := time.Now()
	hb := &hbproto.Heartbeat{
		Src: "bench-ue", Seq: 1, App: "bench", Origin: now, Expiry: time.Hour,
	}
	cs := &connState{cc: &s.stripes[0]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.touch(cs, hb, now, false)
	}
}

// TestMetricsReadStats: every /metrics series that says what a Stats field
// says is read from that field at scrape time, so after a run it reads the
// field exactly, under the name, labels and kind it always had. The run
// moves each of them at least once: a server that takes a batch twice, a
// late heartbeat, two junk connections and an idle one under a ring that hands every
// client to another shard; a stepped relay whose first dial fails and whose
// shard never acknowledges one of its heartbeats.
func TestMetricsReadStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := startServer(t, loopback{}, func(s *Server) {
		s.SetTelemetry(reg)
		s.SetIdleTimeout(100 * time.Millisecond)
		cc, err := cluster.NewSingleNodeClient("127.0.0.1:1")
		if err != nil {
			t.Fatal(err)
		}
		s.SetCluster("shard-a", cc) // the ring's one node is not this shard
	})
	c := dialRaw(t, s.Addr())
	batch := &hbproto.Batch{Relay: "relay-0"}
	for i := range 3 {
		batch.HBs = append(batch.HBs, hbproto.Heartbeat{Src: fmt.Sprintf("ue-%d", i), App: "std", Origin: time.Now(), Expiry: time.Minute})
	}
	for range 2 {
		c.send(batch)
		c.awaitAcks(len(batch.HBs))
	}
	c.send(&hbproto.Heartbeat{Src: "ue-late", App: "std", Origin: time.Now().Add(-time.Hour), Expiry: time.Minute})
	c.awaitAcks(1)
	for range 2 {
		if _, err := dialRaw(t, s.Addr()).conn.Write([]byte("junkjunk")); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, 5*time.Second, func() bool {
		st := s.Stats()
		return st.ProtocolErrors == 2 && st.IdleDrops == 1
	}, "the junk connections dropped and the other reaped")

	shard, dialed := net.Pipe()
	ue, peer := net.Pipe()
	for _, c := range []net.Conn{shard, dialed, ue, peer} {
		t.Cleanup(func() { _ = c.Close() })
	}
	go drain(shard)
	go drain(peer)
	dials := 0
	r := steppedRelay(t, RelayAgentConfig{
		ID: "relay-1", App: "std", Period: time.Minute, Expiry: time.Minute, Capacity: 3, Telemetry: reg,
		Dial: func(string, string) (net.Conn, error) {
			if dials++; dials == 1 {
				return nil, errors.New("refused")
			}
			return dialed, nil
		},
	}, "shard-0")
	uc := &ueConn{conn: ue}
	beat := func(at time.Duration, seq uint64) input {
		return *beatAt(at, uc, hbproto.Heartbeat{Src: "ue-1", Seq: seq, App: "std", Origin: time.Now(), Expiry: time.Minute})
	}
	ack := func(at time.Duration, seq uint64) input {
		return input{at: at, kind: inAck, acked: []hbproto.Ref{{Src: "ue-1", Seq: seq}}}
	}
	const ms, period = time.Millisecond, time.Minute
	stale := hbproto.Heartbeat{Src: "ue-1", Seq: 1, App: "std", Expiry: time.Second}
	r.runTurn([]input{
		{at: 0, kind: inRegister, ue: uc},
		ueHeartbeat(ms, uc, &stale, time.Hour), // expired on arrival, twice
		ueHeartbeat(ms, uc, &stale, time.Hour),
		beat(2*ms, 2), beat(3*ms, 3), beat(4*ms, 4), // M = 3: a flush whose dial fails
		beat(5*ms, 5), // the flush closed the window
	})
	r.runTurn([]input{beat(period+ms, 6), beat(period+2*ms, 7), beat(period+3*ms, 8)}) // a flush the shard takes
	r.runTurn([]input{ack(period+10*ms, 6), ack(period+11*ms, 7)})                     // one feedback write for two acks

	rl, kl := telemetry.L("relay", "relay-1"), telemetry.L("policy", "nagle")
	var sst ServerStats
	var rst RelayAgentStats
	rows := []struct {
		name   string
		labels []telemetry.Label
		kind   telemetry.Kind
		field  func() int
	}{
		{"relaynet_server_accepts_total", nil, telemetry.KindCounter, func() int { return sst.Connections }},
		{"relaynet_server_drops_total", []telemetry.Label{telemetry.L("reason", "protocol")}, telemetry.KindCounter, func() int { return sst.ProtocolErrors }},
		{"relaynet_server_drops_total", []telemetry.Label{telemetry.L("reason", "idle")}, telemetry.KindCounter, func() int { return sst.IdleDrops }},
		{"relaynet_server_late_heartbeats_total", nil, telemetry.KindCounter, func() int { return sst.Late }},
		{"relaynet_server_misrouted_frames_total", nil, telemetry.KindCounter, func() int { return sst.Misrouted }},
		{"relaynet_server_id_guess_hits_total", nil, telemetry.KindCounter, func() int { return sst.IDGuessHits }},
		{"relaynet_server_id_guess_misses_total", nil, telemetry.KindCounter, func() int { return sst.IDGuessMisses }},
		{"relaynet_relay_collected_total", []telemetry.Label{rl}, telemetry.KindCounter, func() int { return rst.Collected }},
		{"relaynet_relay_reconnects_total", []telemetry.Label{rl}, telemetry.KindCounter, func() int { return rst.ShardDials }},
		{"relaynet_relay_shard_drops_total", []telemetry.Label{rl}, telemetry.KindCounter, func() int { return rst.DroppedNoShard }},
		{"relaynet_relay_feedback_writes_saved_total", []telemetry.Label{rl}, telemetry.KindCounter, func() int { return rst.FeedbackWritesSaved }},
		{"relaynet_relay_routes", []telemetry.Label{rl}, telemetry.KindGauge, func() int { return rst.Routes }},
		{"relaynet_relay_routes_expired_total", []telemetry.Label{rl}, telemetry.KindCounter, func() int { return rst.RoutesExpired }},
		{"sched_rejects_total", []telemetry.Label{telemetry.L("reason", "closed"), rl, kl}, telemetry.KindCounter, func() int { return rst.RejectedClosed }},
		{"sched_rejects_total", []telemetry.Label{telemetry.L("reason", "expired"), rl, kl}, telemetry.KindCounter, func() int { return rst.RejectedExpired }},
	}
	moved := make([]bool, len(rows))
	check := func(when string) {
		t.Helper()
		sst, rst = s.Stats(), r.Stats()
		d := reg.Dump()
		for i, row := range rows {
			m, want := d.Find(row.name, row.labels...), row.field()
			if m == nil || m.Kind != row.kind.String() || m.Value != float64(want) {
				t.Errorf("%s: %s%v = %+v, want a %v reading %d", when, row.name, row.labels, m, row.kind, want)
			}
			moved[i] = moved[i] || want != 0
		}
	}
	check("with a route held")
	r.runTurn([]input{{at: 10 * period}}) // the unacknowledged route lapses
	check("after its window")
	for i, row := range rows {
		if !moved[i] {
			t.Errorf("the run never moved %s%v", row.name, row.labels)
		}
	}
}
