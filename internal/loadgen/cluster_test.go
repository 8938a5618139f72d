package loadgen

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/faultnet"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/rec"
	"d2dhb/internal/relaynet"
	"d2dhb/internal/telemetry"
)

// testShard is one presence shard with a full control plane (telemetry,
// health, node agent) as the launcher would run it.
type testShard struct {
	srv    *relaynet.Server
	health *telemetry.Health
	web    *httptest.Server
	node   cluster.Node
	dead   bool
}

func (sh *testShard) kill() {
	if sh.dead {
		return
	}
	sh.dead = true
	sh.srv.Shutdown()
	sh.web.Close()
}

func startTestShard(t *testing.T, id string) *testShard {
	t.Helper()
	return startTestShardOn(t, id, net.Listen)
}

// startTestShardOn is startTestShard with the hbproto listener opened by
// listen — a faultnet schedule's Listen delays or breaks the shard's side.
func startTestShardOn(t *testing.T, id string, listen func(network, addr string) (net.Listener, error)) *testShard {
	t.Helper()
	srv := relaynet.NewServer()
	reg := telemetry.NewRegistry()
	srv.SetTelemetry(reg)
	ln, err := listen("tcp", "127.0.0.1:0")
	if err == nil {
		err = srv.StartListener(ln)
	}
	if err != nil {
		t.Fatalf("shard %s start: %v", id, err)
	}
	health := telemetry.NewHealth()
	mux := http.NewServeMux()
	telemetry.WithHealth(health)(mux)
	telemetry.WithHandler("/cluster/", cluster.NewNodeAgent(srv, health).Handler())(mux)
	mux.Handle("/", telemetry.Handler(reg))
	web := httptest.NewServer(mux)
	sh := &testShard{
		srv: srv, health: health, web: web,
		node: cluster.Node{ID: id, Addr: srv.Addr(), HTTP: web.URL},
	}
	t.Cleanup(sh.kill)
	return sh
}

// startTestCluster spins n shards plus a router and returns the router's
// base URL alongside the shard handles.
func startTestCluster(t *testing.T, n int) (string, *cluster.Router, []*testShard) {
	t.Helper()
	shards := make([]*testShard, n)
	for i := range shards {
		shards[i] = startTestShard(t, "shard-"+string(rune('0'+i)))
	}
	url, router := startTestRouter(t, shards)
	return url, router, shards
}

// startTestRouter starts a router whose first epoch is the given shards and
// returns its base URL.
func startTestRouter(t *testing.T, shards []*testShard) (string, *cluster.Router) {
	t.Helper()
	nodes := make([]cluster.Node, len(shards))
	for i, sh := range shards {
		nodes[i] = sh.node
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Initial:        cluster.Config{Epoch: 1, Nodes: nodes},
		HealthInterval: 50 * time.Millisecond,
		HealthFailures: 2,
		SettleDelay:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(router.Close)
	rweb := httptest.NewServer(router.Handler())
	t.Cleanup(rweb.Close)
	return rweb.URL, router
}

// TestClusterFleetRun drives a socket-per-UE fleet (half relayed, half
// direct) against a 3-shard cluster: direct UEs resolve their owning shard
// through the ring, relays fan batches per shard, and the report embeds
// each shard's metrics scrape. The faulted row resets every write for a
// stretch of the run: a relayed UE whose heartbeat dies on the relay link
// must keep it pending for the fallback sweep — acknowledged over the
// owning shard, not silently dropped as a bare write error.
func TestClusterFleetRun(t *testing.T) {
	cases := []struct {
		name   string
		faults []faultnet.Window
		check  func(t *testing.T, rep Report)
	}{
		{name: "healthy", check: func(t *testing.T, rep Report) {
			if rep.Timeouts != 0 {
				t.Errorf("lost heartbeats in a healthy cluster: %d timeouts", rep.Timeouts)
			}
			if rep.Acked+rep.Timeouts != rep.Sent {
				t.Errorf("acked %d + timeouts %d != sent %d with no transport errors", rep.Acked, rep.Timeouts, rep.Sent)
			}
		}},
		{
			name: "relay link resets",
			faults: []faultnet.Window{{
				From: 300 * time.Millisecond, To: 420 * time.Millisecond,
				Fault: faultnet.Fault{Kind: faultnet.KindReset, Prob: 1},
			}},
			check: func(t *testing.T, rep Report) {
				if rep.WriteErrors == 0 {
					t.Fatal("the reset window broke no write")
				}
				// Sent counts frames that reached the wire on the primary
				// path; every heartbeat kept across a failed relay write is
				// resolved on top of that.
				if rep.Acked+rep.Timeouts <= rep.Sent {
					t.Errorf("acked %d + timeouts %d <= sent %d: heartbeats that failed on the relay link were dropped, not kept for the fallback (writeErrs=%d fallback=%d)",
						rep.Acked, rep.Timeouts, rep.Sent, rep.WriteErrors, rep.FallbackResends)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			routerURL, _, shards := startTestCluster(t, 3)
			cfg := Config{
				UEs:         24,
				Relays:      2,
				RelayRatio:  0.5,
				Profiles:    []hbmsg.AppProfile{fastProfile(80 * time.Millisecond)},
				Duration:    time.Second,
				AckTimeout:  400 * time.Millisecond,
				ClusterAddr: routerURL,
				ReportEvery: 250 * time.Millisecond,
			}
			var interim []Report
			cfg.OnReport = func(rep Report) { interim = append(interim, rep) }
			if tc.faults != nil {
				cfg.Net = faultnet.NewSchedule(1, tc.faults).On(faultnet.OS{})
			}
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Sent == 0 || rep.Acked == 0 {
				t.Fatalf("no traffic: sent=%d acked=%d", rep.Sent, rep.Acked)
			}
			tc.check(t, rep)
			if rep.ClusterEpoch != 1 {
				t.Errorf("cluster epoch = %d, want 1", rep.ClusterEpoch)
			}
			if len(rep.ShardMetrics) != 3 {
				t.Errorf("scraped %d shard metric dumps, want 3", len(rep.ShardMetrics))
			}
			// Interim reports carry the routing view but never wait on a
			// scrape.
			if len(interim) == 0 {
				t.Error("no interim report")
			}
			for _, ir := range interim {
				if ir.ClusterEpoch != 1 || ir.ShardMetrics != nil {
					t.Errorf("interim report at %.2fs: epoch %d, %d shard dumps; want epoch 1 and none",
						ir.ElapsedSec, ir.ClusterEpoch, len(ir.ShardMetrics))
				}
			}
			served := 0
			for _, sh := range shards {
				st := sh.srv.Stats()
				if st.HeartbeatsDirect+st.HeartbeatsRelayed > 0 {
					served++
				}
				if st.Misrouted > 0 {
					t.Errorf("shard %s saw %d misrouted frames in a stable ring", sh.node.ID, st.Misrouted)
				}
			}
			if served < 2 {
				t.Errorf("only %d shards served traffic; ring is not spreading the fleet", served)
			}
			if rep.ShardTable() == nil {
				t.Error("cluster run rendered no shard table")
			}
		})
	}
}

// TestTrunkFleetSingleServer multiplexes a 200-user fleet over 4 trunk
// connections against one in-process server: the batch path must carry and
// acknowledge every user without per-UE sockets — in the bubble, one trunk
// per Table I app for 3 hours.
func TestTrunkFleetSingleServer(t *testing.T) {
	timed(t, func(t *testing.T, nw faultnet.Net) {
		rep := runFleet(t, Config{
			UEs:      200,
			Trunks:   4,
			Duration: hours(3),
			Net:      nw,
		})
		if rep.Trunks != 4 {
			t.Errorf("report trunks = %d, want 4", rep.Trunks)
		}
		if rep.SentRelayed != 7900 || rep.AckedRelayed != 7900 {
			t.Fatalf("trunk fleet sent %d heartbeats and had %d acknowledged", rep.SentRelayed, rep.AckedRelayed)
		}
		if rep.Timeouts != 0 {
			t.Errorf("trunk fleet lost heartbeats against a healthy server: %d", rep.Timeouts)
		}
		if rep.Server == nil || rep.Server.Batches != 158 {
			t.Fatalf("server saw too few batches from the trunked fleet: %+v", rep.Server)
		}
		if rep.Server.Connections > 8 {
			t.Errorf("trunked fleet opened %d conns, want a handful", rep.Server.Connections)
		}
	})
}

// TestClusterReplayFromRecording closes the PR 7 follow-up: a trace
// recorded against a 3-shard cluster replays against a cluster router URL,
// re-partitioning every trunk batch per shard through the live epoch
// config. Replaying against a *different* cluster than the one recorded
// proves routing comes from the replay-side ring, not anything baked into
// the trace (the timeline stores no addresses).
func TestClusterReplayFromRecording(t *testing.T) {
	recURL, _, _ := startTestCluster(t, 3)
	tl := recordRun(t, Config{
		UEs:         18,
		Trunks:      3,
		Profiles:    []hbmsg.AppProfile{fastProfile(60 * time.Millisecond)},
		Duration:    400 * time.Millisecond,
		ClusterAddr: recURL,
	})

	if _, err := ReplayLive(tl, ReplayOptions{ServerAddr: "127.0.0.1:1", ClusterAddr: "127.0.0.1:2"}); err == nil {
		t.Fatal("replay accepted both a server and a cluster target")
	}

	replayURL, _, shards := startTestCluster(t, 3)
	m, err := ReplayLive(tl, ReplayOptions{ClusterAddr: replayURL, Speedup: 4, AckTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if int(m.Sent) != tl.Sends() {
		t.Fatalf("replayed %d of %d recorded sends", m.Sent, tl.Sends())
	}
	if m.Delivered != m.Sent || m.Timeouts != 0 {
		t.Fatalf("cluster replay lost heartbeats: %+v", m)
	}
	if m.Signaling.Uplinks >= m.Sent || m.Signaling.Batches == 0 {
		t.Fatalf("no batching in cluster replay: %+v", m.Signaling)
	}
	served := 0
	for _, sh := range shards {
		st := sh.srv.Stats()
		if st.HeartbeatsDirect+st.HeartbeatsRelayed > 0 {
			served++
		}
		if st.Misrouted > 0 {
			t.Errorf("replay misrouted %d frames to shard %s in a stable ring", st.Misrouted, sh.node.ID)
		}
	}
	if served < 2 {
		t.Errorf("only %d replay shards served traffic; batches are not being partitioned", served)
	}
}

// TestTrunkClusterShardKill is the loss-under-reshard invariant at the
// loadgen level: a trunked fleet spread over 3 shards keeps zero timeouts
// when one shard is hard-killed mid-run — in-flight heartbeats to the dead
// shard are re-sent through the post-eviction ring by the fallback sweep.
func TestTrunkClusterShardKill(t *testing.T) {
	routerURL, router, shards := startTestCluster(t, 3)
	r, err := New(Config{
		UEs:         60,
		Trunks:      3,
		Profiles:    []hbmsg.AppProfile{fastProfile(100 * time.Millisecond)},
		Duration:    1500 * time.Millisecond,
		AckTimeout:  400 * time.Millisecond,
		ClusterAddr: routerURL,
	})
	if err != nil {
		t.Fatal(err)
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(500 * time.Millisecond)
		shards[2].kill()
	}()
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	<-killed
	if _, ok := router.Config().Node(shards[2].node.ID); ok {
		t.Error("killed shard still in the cluster config")
	}
	if rep.SentRelayed == 0 || rep.AckedRelayed == 0 {
		t.Fatalf("trunk fleet moved no traffic: %+v", rep)
	}
	if rep.Timeouts != 0 {
		t.Errorf("shard kill lost %d heartbeats (fallback=%d dialErrs=%d writeErrs=%d)",
			rep.Timeouts, rep.FallbackResends, rep.DialErrors, rep.WriteErrors)
	}
	if len(rep.ShardSent) != 3 {
		t.Errorf("fleet addressed %d shards, want all 3 before the kill", len(rep.ShardSent))
	}
	if rep.ClusterEpoch < 2 {
		t.Errorf("cluster epoch = %d after eviction, want >= 2", rep.ClusterEpoch)
	}
}

// TestTrunkOverflowUnderAckLatencyAndReshard drives the pending table's
// overflow, which the benchmark never reaches. For the first stretch of
// the run every shard holds each ack write for three trunk periods, so
// every user has several heartbeats in flight; later a fourth shard joins,
// so the trunk re-resolves its users' owners under the new view. Every
// heartbeat must end exactly once — acknowledged or timed out — and acks
// may arrive out of order only behind a fallback resend.
func TestTrunkOverflowUnderAckLatencyAndReshard(t *testing.T) {
	const users, period = 48, 40 * time.Millisecond
	lag := faultnet.NewSchedule(1, []faultnet.Window{{
		To:    600 * time.Millisecond,
		Fault: faultnet.Fault{Kind: faultnet.KindLatency, Latency: 3 * period},
	}})
	shards := make([]*testShard, 3)
	for i := range shards {
		shards[i] = startTestShardOn(t, "shard-"+string(rune('0'+i)), lag.On(faultnet.OS{}).Listen)
	}
	routerURL, router := startTestRouter(t, shards)
	joiner := startTestShard(t, "shard-3")

	recorder := rec.NewRecorder()
	var r *Runner
	// More heartbeats pending than users means some user has a second one
	// in flight: the overflow holds it. The interim reports sample the
	// count; Run makes them while the fleet runs, after it is built.
	var peak atomic.Int64
	r, err := New(Config{
		UEs:            users,
		Trunks:         1,
		TrunkPaceSlots: 4,
		Profiles:       []hbmsg.AppProfile{fastProfile(period)},
		Duration:       1400 * time.Millisecond,
		AckTimeout:     time.Second,
		ClusterAddr:    routerURL,
		Recorder:       recorder,
		ReportEvery:    5 * time.Millisecond,
		OnReport: func(Report) {
			if n := int64(r.units[0].InFlight()); n > peak.Load() {
				peak.Store(n)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		time.Sleep(900 * time.Millisecond)
		if err := router.Join(joiner.node); err != nil {
			t.Errorf("join: %v", err)
		}
	}()
	lag.Start()
	rep, err := r.Run()
	<-joined
	if err != nil {
		t.Fatal(err)
	}

	if got := peak.Load(); got <= users {
		t.Fatalf("at most %d heartbeats pending for %d users: the overflow was never used", got, users)
	}
	if rep.ClusterEpoch < 2 || joiner.srv.Stats().HeartbeatsRelayed == 0 {
		t.Fatalf("the reshard did not take: epoch %d, joiner served %d", rep.ClusterEpoch, joiner.srv.Stats().HeartbeatsRelayed)
	}
	if rep.Sent == 0 || rep.Errors != 0 {
		t.Fatalf("sent %d, %d transport errors; want traffic and none", rep.Sent, rep.Errors)
	}
	if rep.Acked+rep.Timeouts != rep.Sent {
		t.Errorf("acked %d + timeouts %d != sent %d", rep.Acked, rep.Timeouts, rep.Sent)
	}
	if rep.OutOfOrderAcks > rep.FallbackResends {
		t.Errorf("%d out-of-order acks, only %d fallback resends", rep.OutOfOrderAcks, rep.FallbackResends)
	}
	tl, err := recorder.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	type hb struct {
		client int
		seq    uint64
	}
	sent, ended := map[hb]int{}, map[hb]int{}
	for _, e := range tl.Events {
		k := hb{e.Client, e.Seq}
		if e.Kind == rec.EvSend {
			sent[k]++
		} else {
			ended[k]++
		}
	}
	for k, n := range sent {
		if n != 1 || ended[k] != 1 {
			t.Fatalf("client %d seq %d: sent %d times, ended %d times; want once each", k.client, k.seq, n, ended[k])
		}
	}
	if len(ended) != len(sent) {
		t.Fatalf("%d heartbeats ended, %d were sent", len(ended), len(sent))
	}
}
