package cluster

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d2dhb/internal/telemetry"
)

// fakeStore is an in-memory Store for control-plane tests.
type fakeStore struct {
	mu      sync.Mutex
	entries map[string]PresenceEntry
}

func newFakeStore() *fakeStore {
	return &fakeStore{entries: make(map[string]PresenceEntry)}
}

func (s *fakeStore) ExportPresence() []PresenceEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PresenceEntry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	return out
}

func (s *fakeStore) ImportPresence(entries []PresenceEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		cur, ok := s.entries[e.ID]
		if !ok || e.DeadlineUnixNano > cur.DeadlineUnixNano {
			if ok && cur.MaxSeq > e.MaxSeq {
				e.MaxSeq = cur.MaxSeq
			}
			s.entries[e.ID] = e
		}
	}
}

func (s *fakeStore) ForgetPresence(ids []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		delete(s.entries, id)
	}
}

func (s *fakeStore) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// testShard is one fake shard: a Store served by a real NodeAgent on a
// httptest server, with real /healthz + /readyz.
type testShard struct {
	id     string
	store  *fakeStore
	health *telemetry.Health
	srv    *httptest.Server
}

func newTestShard(t *testing.T, id string) *testShard {
	t.Helper()
	sh := &testShard{id: id, store: newFakeStore(), health: telemetry.NewHealth()}
	agent := NewNodeAgent(sh.store, sh.health)
	mux := http.NewServeMux()
	mux.Handle("/cluster/", agent.Handler())
	telemetry.WithHealth(sh.health)(mux)
	sh.srv = httptest.NewServer(mux)
	t.Cleanup(sh.srv.Close)
	return sh
}

func (sh *testShard) node() Node {
	return Node{ID: sh.id, Addr: "127.0.0.1:1", HTTP: sh.srv.URL}
}

func shardURL(sh *testShard, path string) string { return sh.srv.URL + path }

func startRouter(t *testing.T, rcfg RouterConfig) (*Router, *httptest.Server) {
	t.Helper()
	r, err := NewRouter(rcfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)
	return r, srv
}

func eventually(t *testing.T, within time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// entriesFor builds n presence entries owned (under ring) by nothing in
// particular — callers filter by owner as needed.
func seedEntries(s *fakeStore, prefix string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-%04d", prefix, i)
		s.entries[id] = PresenceEntry{
			ID: id, App: "std",
			LastSeenUnixNano: int64(1000 + i),
			DeadlineUnixNano: int64(2000 + i),
			MaxSeq:           uint64(i),
		}
	}
}

// TestRouterConfigAndClient covers the serve/poll path: the client fetches
// the initial epoch, observes a flip, and never steps backwards.
func TestRouterConfigAndClient(t *testing.T) {
	a, b := newTestShard(t, "shard-a"), newTestShard(t, "shard-b")
	_, srv := startRouter(t, RouterConfig{
		Initial:        Config{Epoch: 1, Nodes: []Node{a.node(), b.node()}},
		HealthInterval: -1,
		SettleDelay:    time.Millisecond,
	})

	reg := telemetry.NewRegistry()
	c, err := NewClient(ClientConfig{
		RouterURL:    srv.URL,
		PollInterval: 20 * time.Millisecond,
		Telemetry:    reg,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(c.Close)
	if c.Epoch() != 1 {
		t.Fatalf("initial epoch = %d, want 1", c.Epoch())
	}
	if _, ok := c.View().Owner("some-client"); !ok {
		t.Fatal("view resolves no owner")
	}

	// Drain b: epoch flips to 2 and the poller picks it up.
	resp, err := http.Post(srv.URL+"/cluster/drain?id=shard-b", "", nil)
	if err != nil {
		t.Fatalf("drain POST: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %s", resp.Status)
	}
	eventually(t, 2*time.Second, func() bool { return c.Epoch() == 2 }, "client observing epoch 2")
	if got := c.View().Ring().Size(); got != 1 {
		t.Fatalf("post-drain ring size = %d, want 1", got)
	}
	if b.health.Ready() {
		t.Fatal("drained shard still reports ready")
	}
}

// TestRouterDrainHandsStateToSuccessors is the handoff core: every entry on
// the drained shard lands on the shard now owning its key, and the drained
// shard's /readyz flips to 503 while the survivor stays ready.
func TestRouterDrainHandsStateToSuccessors(t *testing.T) {
	a, b := newTestShard(t, "shard-a"), newTestShard(t, "shard-b")
	seedEntries(a.store, "client", 200)
	r, _ := startRouter(t, RouterConfig{
		Initial:        Config{Epoch: 1, Nodes: []Node{a.node(), b.node()}},
		HealthInterval: -1,
		SettleDelay:    time.Millisecond,
	})

	if err := r.Drain("shard-a"); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := b.store.count(); got != 200 {
		t.Fatalf("successor holds %d entries, want all 200", got)
	}
	// High-water marks survive the move.
	if e, ok := b.store.entries["client-0199"]; !ok || e.MaxSeq != 199 {
		t.Fatalf("entry client-0199 = %+v, want MaxSeq 199", e)
	}

	ready := func(sh *testShard) int {
		resp, err := http.Get(shardURL(sh, "/readyz"))
		if err != nil {
			t.Fatalf("readyz: %v", err)
		}
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	if code := ready(a); code != http.StatusServiceUnavailable {
		t.Fatalf("drained shard /readyz = %d, want 503", code)
	}
	if code := ready(b); code != http.StatusOK {
		t.Fatalf("surviving shard /readyz = %d, want 200", code)
	}

	// The last shard is protected.
	if err := r.Drain("shard-b"); err == nil {
		t.Fatal("drained the last shard")
	}
}

// TestRouterJoinMovesOwnedKeys: a joining shard receives exactly the keys
// the new ring assigns it, and the previous owners forget them.
func TestRouterJoinMovesOwnedKeys(t *testing.T) {
	a := newTestShard(t, "shard-a")
	seedEntries(a.store, "client", 300)
	r, _ := startRouter(t, RouterConfig{
		Initial:        Config{Epoch: 5, Nodes: []Node{a.node()}},
		HealthInterval: -1,
		SettleDelay:    time.Millisecond,
	})

	b := newTestShard(t, "shard-b")
	if err := r.Join(b.node()); err != nil {
		t.Fatalf("Join: %v", err)
	}
	cfg := r.Config()
	if cfg.Epoch != 6 || len(cfg.Nodes) != 2 {
		t.Fatalf("post-join config = %+v", cfg)
	}
	view, err := NewView(cfg, 0)
	if err != nil {
		t.Fatalf("NewView: %v", err)
	}
	wantB := 0
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("client-%04d", i)
		owner := view.Ring().Owner(id)
		onB := func() bool { b.store.mu.Lock(); defer b.store.mu.Unlock(); _, ok := b.store.entries[id]; return ok }()
		onA := func() bool { a.store.mu.Lock(); defer a.store.mu.Unlock(); _, ok := a.store.entries[id]; return ok }()
		if owner == "shard-b" {
			wantB++
			if !onB {
				t.Fatalf("moved key %s missing on joiner", id)
			}
			if onA {
				t.Fatalf("moved key %s not forgotten on old owner", id)
			}
		} else if !onA || onB {
			t.Fatalf("unmoved key %s misplaced (onA=%v onB=%v)", id, onA, onB)
		}
	}
	if wantB == 0 {
		t.Fatal("join moved no keys; ring degenerate")
	}
	// Duplicate joins are rejected.
	if err := r.Join(b.node()); err == nil {
		t.Fatal("duplicate join accepted")
	}
}

// TestRouterHealthEviction: a shard whose /healthz stops answering is
// evicted after the failure threshold, bumping the epoch — the crash half
// of live resharding.
func TestRouterHealthEviction(t *testing.T) {
	a, b := newTestShard(t, "shard-a"), newTestShard(t, "shard-b")
	r, _ := startRouter(t, RouterConfig{
		Initial:        Config{Epoch: 1, Nodes: []Node{a.node(), b.node()}},
		HealthInterval: 20 * time.Millisecond,
		HealthFailures: 2,
		HTTPTimeout:    200 * time.Millisecond,
		SettleDelay:    time.Millisecond,
	})

	b.srv.Close() // shard-b dies without a drain
	eventually(t, 5*time.Second, func() bool {
		cfg := r.Config()
		_, ok := cfg.Node("shard-b")
		return !ok && cfg.Epoch == 2
	}, "dead shard evicted at epoch 2")
	if _, ok := r.Config().Node("shard-a"); !ok {
		t.Fatal("healthy shard evicted too")
	}
}

// TestRouterProbeReusesConnection counts the TCP connections a shard's
// telemetry listener accepts over 20 health probes: a probe that closes
// the /healthz body unread makes the next one dial again.
func TestRouterProbeReusesConnection(t *testing.T) {
	var dials atomic.Int32
	mux := http.NewServeMux()
	telemetry.WithHealth(telemetry.NewHealth())(mux)
	srv := httptest.NewUnstartedServer(mux)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	r, _ := startRouter(t, RouterConfig{
		Initial:        Config{Epoch: 1, Nodes: []Node{{ID: "shard-a", Addr: "127.0.0.1:1", HTTP: srv.URL}}},
		HealthInterval: -1,
	})
	for i := 0; i < 20; i++ {
		if !r.probe(r.Config().Nodes[0]) {
			t.Fatalf("probe %d failed", i)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("20 probes opened %d connections, want 1", n)
	}
}

// TestClientStatic covers the no-router client used by single-server
// deployments and in-process tests.
func TestClientStatic(t *testing.T) {
	cfg := Config{Epoch: 9, Nodes: []Node{{ID: "only", Addr: "127.0.0.1:1"}}}
	c, err := NewStaticClient(cfg, 0)
	if err != nil {
		t.Fatalf("NewStaticClient: %v", err)
	}
	t.Cleanup(c.Close)
	if c.Epoch() != 9 {
		t.Fatalf("epoch = %d, want 9", c.Epoch())
	}
	if err := c.Refresh(); err != nil {
		t.Fatalf("static Refresh: %v", err)
	}
	n, ok := c.View().Owner("anything")
	if !ok || n.ID != "only" {
		t.Fatalf("owner = %+v, %v", n, ok)
	}

	// A fixed server address is the same thing built from the address.
	single, err := NewSingleNodeClient("127.0.0.1:2")
	if err != nil {
		t.Fatalf("NewSingleNodeClient: %v", err)
	}
	t.Cleanup(single.Close)
	if got := single.OwnerAddr("anything"); got != "127.0.0.1:2" {
		t.Fatalf("OwnerAddr = %q, want the server", got)
	}
	if got := single.NodeAddr("127.0.0.1:2"); got != "127.0.0.1:2" {
		t.Fatalf("NodeAddr(own id) = %q", got)
	}
	if got := single.NodeAddr("gone"); got != "" {
		t.Fatalf("NodeAddr(unknown) = %q, want empty", got)
	}
	if _, err := NewSingleNodeClient(""); err == nil {
		t.Fatal("empty server address accepted")
	}
}

// TestConfigValidation covers config error paths and JSON round-trip.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Epoch: 1, Nodes: []Node{{ID: "", Addr: "x"}}},
		{Epoch: 1, Nodes: []Node{{ID: "a", Addr: "x"}, {ID: "a", Addr: "y"}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d validated", i)
		}
	}
	good := Config{Epoch: 3, Nodes: []Node{{ID: "a", Addr: "x", HTTP: "http://h"}}}
	data, err := MarshalConfig(good)
	if err != nil {
		t.Fatalf("MarshalConfig: %v", err)
	}
	back, err := UnmarshalConfig(data)
	if err != nil {
		t.Fatalf("UnmarshalConfig: %v", err)
	}
	if back.Epoch != 3 || len(back.Nodes) != 1 || back.Nodes[0] != good.Nodes[0] {
		t.Fatalf("round-trip = %+v", back)
	}
}
