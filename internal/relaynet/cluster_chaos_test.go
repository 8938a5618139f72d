package relaynet

// Cluster chaos suite: a 3-shard presence cluster (real servers, real
// router, real HTTP control plane) under a relay-trunked UE fleet, driven
// through a graceful drain, a hard shard kill and a rolling-restart join —
// asserting the ISSUE's acceptance invariants end to end:
//
//   - zero lost heartbeats: every heartbeat generated across the reshards
//     is eventually delivered to SOME live shard (relay fanout or the UE's
//     feedback-timeout fallback, which re-resolves the owner through the
//     current ring epoch);
//   - no duplicate and no non-monotonic feedback acks per device;
//   - a drained shard's presence state (client rows + sequence high-water
//     marks) lands on the successors before the shard goes away.

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/telemetry"
	"d2dhb/internal/trace"
)

// clusterShard is one presence shard plus its control-plane endpoint, as a
// launcher would run it: hbproto listener + /healthz /readyz /cluster/*.
type clusterShard struct {
	srv    *Server
	health *telemetry.Health
	web    *httptest.Server
	node   cluster.Node
	dead   bool
}

func startClusterShard(t *testing.T, rec *trace.Recorder, id string) *clusterShard {
	t.Helper()
	srv := NewServer()
	srv.SetTracer(rec)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("shard %s start: %v", id, err)
	}
	health := telemetry.NewHealth()
	mux := http.NewServeMux()
	telemetry.WithHealth(health)(mux)
	telemetry.WithHandler("/cluster/", cluster.NewNodeAgent(srv, health).Handler())(mux)
	web := httptest.NewServer(mux)
	sh := &clusterShard{
		srv: srv, health: health, web: web,
		node: cluster.Node{ID: id, Addr: srv.Addr(), HTTP: web.URL},
	}
	t.Cleanup(sh.kill)
	return sh
}

// kill stops the shard abruptly: listener, connections and control plane
// all go away at once, as in a process crash.
func (sh *clusterShard) kill() {
	if sh.dead {
		return
	}
	sh.dead = true
	sh.srv.Shutdown()
	sh.web.Close()
}

// TestClusterChaosDrainKillAndRollingRestart is the headline cluster chaos
// scenario: 12 relay-trunked UEs against 3 shards, then (1) graceful drain
// of shard-1 followed by its shutdown, (2) hard kill of shard-2 with
// health-probe eviction, (3) rolling-restart Join of a fresh shard-1
// instance. Zero heartbeats may be lost and acks must stay per-device
// monotonic and duplicate-free across all three reshards.
func TestClusterChaosDrainKillAndRollingRestart(t *testing.T) {
	var rec trace.Recorder
	s0 := startClusterShard(t, &rec, "shard-0")
	s1 := startClusterShard(t, &rec, "shard-1")
	s2 := startClusterShard(t, &rec, "shard-2")

	router, err := cluster.NewRouter(cluster.RouterConfig{
		Initial:        cluster.Config{Epoch: 1, Nodes: []cluster.Node{s0.node, s1.node, s2.node}},
		HealthInterval: 50 * time.Millisecond,
		HealthFailures: 2,
		SettleDelay:    150 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer router.Close()
	rweb := httptest.NewServer(router.Handler())
	defer rweb.Close()

	client, err := cluster.NewClient(cluster.ClientConfig{
		RouterURL:    rweb.URL,
		PollInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()

	relay, err := NewRelayAgent(RelayAgentConfig{
		ID: "relay-0", App: "im", Period: 100 * time.Millisecond,
		Expiry: 500 * time.Millisecond, Capacity: 64,
		Tracer: &rec, Cluster: client,
	})
	if err != nil {
		t.Fatalf("NewRelayAgent: %v", err)
	}
	if err := relay.Start("127.0.0.1:0", ""); err != nil {
		t.Fatalf("relay Start: %v", err)
	}
	defer relay.Shutdown()

	ueIDs := make([]string, 12)
	for i := range ueIDs {
		ueIDs[i] = "cue-" + string(rune('a'+i))
		cfg := ueConfig(ueIDs[i], relay.Addr(), "", 150*time.Millisecond, 600*time.Millisecond)
		cfg.FeedbackTimeout = 300 * time.Millisecond
		cfg.Tracer = &rec
		cfg.Cluster = client
		u, err := NewUEClient(cfg)
		if err != nil {
			t.Fatalf("NewUEClient(%s): %v", ueIDs[i], err)
		}
		if err := u.Start(); err != nil {
			t.Fatalf("ue %s Start: %v", ueIDs[i], err)
		}
		t.Cleanup(u.Shutdown)
	}

	// Baseline: traffic reaches all three shards through the relay fanout.
	eventually(t, 3*time.Second, func() bool {
		return s0.srv.Stats().HeartbeatsRelayed > 0 &&
			s1.srv.Stats().HeartbeatsRelayed > 0 &&
			s2.srv.Stats().HeartbeatsRelayed > 0
	}, "relay fanout reaches every shard")

	// (1) Graceful drain of shard-1: the router flips the epoch, waits for
	// routes to settle, snapshots the shard and hands its presence rows to
	// the successors. Only then does the process go away.
	if err := router.Drain("shard-1"); err != nil {
		t.Fatalf("Drain(shard-1): %v", err)
	}
	if s1.health.Ready() {
		t.Error("drained shard still reports ready")
	}
	s1.kill()

	// The handoff must have landed shard-1's presence rows (with their
	// sequence high-water marks) on the surviving shards.
	handedOver := make(map[string]uint64)
	for _, sh := range []*clusterShard{s0, s2} {
		for _, e := range sh.srv.ExportPresence() {
			if e.MaxSeq > handedOver[e.ID] {
				handedOver[e.ID] = e.MaxSeq
			}
		}
	}
	for _, id := range ueIDs {
		if handedOver[id] == 0 {
			t.Errorf("ue %s missing from surviving shards' presence after drain handoff", id)
		}
	}

	time.Sleep(200 * time.Millisecond)

	// (2) Hard kill of shard-2: no drain, no handoff. The router's health
	// probes evict it; in-flight heartbeats recover through the UE
	// fallback re-resolving against the post-eviction ring.
	s2.kill()
	eventually(t, 3*time.Second, func() bool {
		_, ok := router.Config().Node("shard-2")
		return !ok
	}, "health probes evict the killed shard")

	time.Sleep(300 * time.Millisecond)

	// (3) Rolling restart: a fresh shard-1 instance (same ring identity,
	// new ports) joins; incumbents hand over the keys it now owns.
	s1b := startClusterShard(t, &rec, "shard-1")
	if err := router.Join(s1b.node); err != nil {
		t.Fatalf("Join(shard-1 restart): %v", err)
	}
	eventually(t, 3*time.Second, func() bool {
		return s1b.srv.Stats().HeartbeatsRelayed > 0
	}, "restarted shard serves relayed heartbeats again")

	// Invariants across all three reshards: the server sees every
	// heartbeat generated so far.
	generated := generatedSet(&rec)
	if len(generated) == 0 {
		t.Fatal("no heartbeats generated")
	}
	eventually(t, 5*time.Second, func() bool { return len(lost(&rec, generated)) == 0 },
		"zero lost heartbeats (fallback fired for every unacked send)")
	assertNoDuplicateAcks(t, &rec)
	assertMonotonicAcks(t, &rec)

	if epoch := client.Epoch(); epoch < 4 {
		t.Errorf("client epoch %d after drain+evict+join, want >= 4", epoch)
	}
	if st := relay.Stats(); st.ForwardedSent == 0 {
		t.Errorf("relay forwarded nothing: %+v", st)
	}
}

// TestRelayBackoffRedialFollowsEpoch is the regression for the reconnect
// fix: a relay whose server moves must redial the address the current
// epoch gives the node, not the one it first connected to. The "router"
// is a bare config endpoint whose epoch 2 moves the one node's Addr.
func TestRelayBackoffRedialFollowsEpoch(t *testing.T) {
	oldSrv := startServer(t, loopback{})
	newSrv := startServer(t, loopback{})

	var cfg atomic.Pointer[cluster.Config]
	cfg.Store(&cluster.Config{Epoch: 1, Nodes: []cluster.Node{{ID: "srv", Addr: oldSrv.Addr()}}})
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		data, _ := cluster.MarshalConfig(*cfg.Load())
		_, _ = w.Write(data)
	}))
	defer router.Close()
	client, err := cluster.NewClient(cluster.ClientConfig{RouterURL: router.URL, PollInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()

	relay, err := NewRelayAgent(RelayAgentConfig{
		ID: "relay-rr", App: "im", Period: 60 * time.Millisecond,
		Expiry: 400 * time.Millisecond, Capacity: 8,
		Cluster: client,
	})
	if err != nil {
		t.Fatalf("NewRelayAgent: %v", err)
	}
	if err := relay.Start("127.0.0.1:0", ""); err != nil {
		t.Fatalf("relay Start: %v", err)
	}
	defer relay.Shutdown()

	eventually(t, 2*time.Second, func() bool {
		return oldSrv.Stats().Batches > 0
	}, "relay reaches the original server")

	// The server moves: the old address dies and epoch 2 puts the node at
	// the new one. A relay that kept redialing the address it first
	// connected to would back off against the dead one forever.
	cfg.Store(&cluster.Config{Epoch: 2, Nodes: []cluster.Node{{ID: "srv", Addr: newSrv.Addr()}}})
	oldSrv.Shutdown()

	eventually(t, 3*time.Second, func() bool {
		return newSrv.Stats().Batches > 0
	}, "relay redials the node at its new epoch's address")
	if st := relay.Stats(); st.UpstreamReconnects == 0 {
		t.Errorf("move not counted as a reconnect: %+v", st)
	}
}

// TestServerCountsMisroutedFrames checks the shard-side routing audit: a
// heartbeat arriving at a shard the ring does not assign it increments the
// misrouted counter (and nothing else breaks — availability beats
// placement).
func TestServerCountsMisroutedFrames(t *testing.T) {
	cfg := cluster.Config{Epoch: 1, Nodes: []cluster.Node{
		{ID: "shard-a", Addr: "127.0.0.1:1"},
		{ID: "shard-b", Addr: "127.0.0.1:2"},
	}}
	cc, err := cluster.NewStaticClient(cfg, 0)
	if err != nil {
		t.Fatalf("NewStaticClient: %v", err)
	}
	ring := cc.View().Ring()
	var owned, foreign string
	for i := 0; owned == "" || foreign == ""; i++ {
		id := "probe-" + string(rune('0'+i%10)) + string(rune('a'+i/10))
		if ring.Owner(id) == "shard-a" {
			owned = id
		} else {
			foreign = id
		}
	}

	srv := NewServer()
	srv.SetCluster("shard-a", cc)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("server start: %v", err)
	}
	defer srv.Shutdown()

	for _, id := range []string{owned, foreign} {
		cfg := ueConfig(id, "", srv.Addr(), 50*time.Millisecond, 300*time.Millisecond)
		u, err := NewUEClient(cfg)
		if err != nil {
			t.Fatalf("NewUEClient(%s): %v", id, err)
		}
		if err := u.Start(); err != nil {
			t.Fatalf("ue %s Start: %v", id, err)
		}
		t.Cleanup(u.Shutdown)
	}

	eventually(t, 2*time.Second, func() bool {
		st := srv.Stats()
		return st.HeartbeatsDirect >= 2 && st.Misrouted > 0
	}, "foreign-owned heartbeat counted as misrouted")
	eventually(t, 2*time.Second, func() bool {
		st := srv.Stats()
		// Only the foreign UE's heartbeats misroute; the owned UE's never do.
		return st.Misrouted < st.HeartbeatsDirect
	}, "owned heartbeats not counted as misrouted")
}
