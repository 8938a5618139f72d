package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"d2dhb/internal/telemetry"
)

// RouterConfig parameterizes the cluster router.
type RouterConfig struct {
	// Initial is the starting membership; its epoch is the starting epoch.
	Initial Config
	// VirtualNodes is the ring vnode count used when redistributing state;
	// zero selects DefaultVirtualNodes. Must match the routing parties.
	VirtualNodes int
	// HealthInterval is the liveness probe period for auto-eviction; zero
	// selects 250 ms, negative disables the health loop.
	HealthInterval time.Duration
	// HealthFailures is how many consecutive probe failures evict a shard;
	// zero selects 3.
	HealthFailures int
	// SettleDelay is how long a drain waits after publishing the new epoch
	// before snapshotting the departing shard, so routing parties polling
	// the config stop sending to it first and the snapshot carries final
	// high-water marks. Zero selects 2×DefaultPollInterval.
	SettleDelay time.Duration
	// HTTPTimeout bounds every probe/handoff request; zero selects 5 s.
	HTTPTimeout time.Duration
	// Telemetry, when non-nil, registers the router's epoch/membership
	// gauges and reshard counters.
	Telemetry *telemetry.Registry
}

// Router is the cluster's control plane: it serves the epoch-versioned
// config, probes shard liveness (auto-evicting dead shards so routing
// parties stop targeting them), and orchestrates graceful drains — flip the
// epoch, wait for routes to settle, snapshot the departing shard, and
// import its presence state into the successors that now own each key.
//
// The router is intentionally not in the data path: heartbeats never pass
// through it, so its availability bounds resharding agility, not delivery.
type Router struct {
	rcfg RouterConfig
	http *http.Client

	mu   sync.Mutex
	cfg  Config
	fail map[string]int

	// opMu serializes reshard operations (drain/join/evict) so two
	// concurrent drains cannot interleave their flip+handoff sequences.
	opMu sync.Mutex

	drains    *telemetry.Counter
	joins     *telemetry.Counter
	evictions *telemetry.Counter

	done   chan struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewRouter validates the initial membership and starts the health loop.
func NewRouter(rcfg RouterConfig) (*Router, error) {
	if err := rcfg.Initial.Validate(); err != nil {
		return nil, err
	}
	if _, err := NewView(rcfg.Initial, rcfg.VirtualNodes); err != nil {
		return nil, err
	}
	to := rcfg.HTTPTimeout
	if to <= 0 {
		to = 5 * time.Second
	}
	r := &Router{
		rcfg: rcfg,
		http: &http.Client{Timeout: to},
		cfg:  rcfg.Initial.clone(),
		fail: make(map[string]int),
		done: make(chan struct{}),
	}
	if reg := rcfg.Telemetry; reg != nil {
		r.drains = reg.Counter("cluster_router_drains_total")
		r.joins = reg.Counter("cluster_router_joins_total")
		r.evictions = reg.Counter("cluster_router_evictions_total")
		reg.GaugeFunc("cluster_router_epoch", func() float64 {
			return float64(r.Config().Epoch)
		})
		reg.GaugeFunc("cluster_router_nodes", func() float64 {
			return float64(len(r.Config().Nodes))
		})
	}
	if rcfg.HealthInterval >= 0 {
		interval := rcfg.HealthInterval
		if interval == 0 {
			interval = 250 * time.Millisecond
		}
		r.wg.Add(1)
		go r.healthLoop(interval)
	}
	return r, nil
}

// Config returns the current membership.
func (r *Router) Config() Config {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.clone()
}

// Handler serves the control plane:
//
//	GET  /cluster/config    current Config as JSON
//	POST /cluster/drain?id=X   graceful drain (flip, settle, handoff)
//	POST /cluster/evict?id=X   forced removal, no handoff (crash path)
//	POST /cluster/join         JSON Node body; handoff moved keys to it
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/config", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		data, err := MarshalConfig(r.Config())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(append(data, '\n'))
	})
	mux.HandleFunc("/cluster/drain", func(w http.ResponseWriter, req *http.Request) {
		r.membershipOp(w, req, func(id string) error { return r.Drain(id) })
	})
	mux.HandleFunc("/cluster/evict", func(w http.ResponseWriter, req *http.Request) {
		r.membershipOp(w, req, func(id string) error { return r.Evict(id) })
	})
	mux.HandleFunc("/cluster/join", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var n Node
		if err := json.NewDecoder(io.LimitReader(req.Body, 1<<16)).Decode(&n); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := r.Join(n); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		fmt.Fprintf(w, "joined %s at epoch %d\n", n.ID, r.Config().Epoch)
	})
	return mux
}

// membershipOp runs one id-keyed POST operation.
func (r *Router) membershipOp(w http.ResponseWriter, req *http.Request, op func(string) error) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	id := req.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing id", http.StatusBadRequest)
		return
	}
	if err := op(id); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	fmt.Fprintf(w, "ok: epoch %d\n", r.Config().Epoch)
}

// Drain gracefully removes a shard: mark it draining (its /readyz flips
// false), publish the successor config at epoch+1, wait SettleDelay for
// routing parties to pick the new epoch up, snapshot the now-quiescent
// shard and import each key's state into its new owner. The shard keeps
// serving throughout — callers shut it down only after Drain returns, so a
// rolling restart loses zero heartbeats.
//
// Membership is updated even when the handoff fails (a half-dead shard must
// still leave the ring); the error then reports the incomplete handoff.
func (r *Router) Drain(id string) error {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	node, next, err := r.removalConfig(id)
	if err != nil {
		return err
	}
	// Best effort: the draining flag only gates /readyz, and a shard that
	// cannot flip it can still hand its state off.
	_ = r.post(node.HTTP+"/cluster/draining?v=true", nil) //lint:allow lockheld opMu runs one membership op at a time, its handoff HTTP calls included

	view, err := NewView(next, r.rcfg.VirtualNodes)
	if err != nil {
		return err
	}
	r.publish(next)
	r.drains.Inc()
	// Holding opMu across the settle window is the drain ordering: no
	// other membership op may interleave between publishing the shrunken
	// config and snapshotting the departing shard, or the handoff could
	// target a ring that no longer exists.
	r.settle() //lint:allow lockheld opMu serializes membership ops across the settle window by design

	entries, err := r.snapshot(node) //lint:allow lockheld opMu runs one membership op at a time, its handoff HTTP calls included
	if err != nil {
		return fmt.Errorf("cluster: drain %s: membership updated but handoff failed: %w", id, err)
	}
	return r.distribute(view, entries, "") //lint:allow lockheld opMu runs one membership op at a time, its handoff HTTP calls included
}

// Evict removes a shard with no handoff — the crash path. Presence state
// on the evicted shard is lost (clients refresh it with their next
// heartbeat; the chaos suite asserts no heartbeat itself is lost).
func (r *Router) Evict(id string) error {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	_, next, err := r.removalConfig(id)
	if err != nil {
		return err
	}
	r.publish(next)
	r.evictions.Inc()
	return nil
}

// Join adds a shard and hands it the keys it now owns: snapshot every
// incumbent, publish the new config, import the moved entries into the
// joiner and tell the previous owners to forget them (so per-shard
// occupancy stays truthful).
func (r *Router) Join(n Node) error {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	if n.ID == "" || n.Addr == "" {
		return fmt.Errorf("cluster: join needs id and addr, got %+v", n)
	}
	cur := r.Config()
	if _, ok := cur.Node(n.ID); ok {
		return fmt.Errorf("cluster: node %q already in the cluster", n.ID)
	}
	next := Config{Epoch: cur.Epoch + 1, Nodes: append(slices.Clone(cur.Nodes), n)}
	view, err := NewView(next, r.rcfg.VirtualNodes)
	if err != nil {
		return err
	}
	// Snapshot incumbents before the flip: keys moving to the joiner stop
	// receiving traffic at their old owner the moment parties see the new
	// epoch, so the pre-flip snapshot is their final state (heartbeats in
	// the gap merge fresher state at the joiner anyway, by max-merge).
	var moved []PresenceEntry
	forget := make(map[string][]string)
	for _, inc := range cur.Nodes {
		entries, err := r.snapshot(inc) //lint:allow lockheld opMu runs one membership op at a time, its handoff HTTP calls included
		if err != nil {
			return fmt.Errorf("cluster: join %s: snapshot %s: %w", n.ID, inc.ID, err)
		}
		for _, e := range entries {
			if view.Ring().Owner(e.ID) == n.ID {
				moved = append(moved, e)
				forget[inc.ID] = append(forget[inc.ID], e.ID)
			}
		}
	}
	r.publish(next)
	r.joins.Inc()
	if err := r.importTo(n, moved); err != nil { //lint:allow lockheld opMu runs one membership op at a time, its handoff HTTP calls included
		return fmt.Errorf("cluster: join %s: membership updated but handoff failed: %w", n.ID, err)
	}
	for _, inc := range cur.Nodes {
		if ids := forget[inc.ID]; len(ids) > 0 {
			// Best effort: stale copies only skew gauges.
			_ = r.forget(inc, ids) //lint:allow lockheld opMu runs one membership op at a time, its handoff HTTP calls included
		}
	}
	return nil
}

// removalConfig validates a removal and returns the node plus the
// successor config.
func (r *Router) removalConfig(id string) (Node, Config, error) {
	cur := r.Config()
	node, ok := cur.Node(id)
	if !ok {
		return Node{}, Config{}, fmt.Errorf("cluster: unknown node %q", id)
	}
	if len(cur.Nodes) == 1 {
		return Node{}, Config{}, fmt.Errorf("cluster: refusing to remove the last shard %q", id)
	}
	nodes := make([]Node, 0, len(cur.Nodes)-1)
	for _, n := range cur.Nodes {
		if n.ID != id {
			nodes = append(nodes, n)
		}
	}
	return node, Config{Epoch: cur.Epoch + 1, Nodes: nodes}, nil
}

// publish swaps the current config.
func (r *Router) publish(next Config) {
	r.mu.Lock()
	r.cfg = next.clone()
	r.mu.Unlock()
}

// settle sleeps long enough for config pollers to observe a fresh epoch.
func (r *Router) settle() {
	d := r.rcfg.SettleDelay
	if d <= 0 {
		d = 2 * DefaultPollInterval
	}
	select {
	case <-r.done:
	case <-time.After(d):
	}
}

// distribute imports entries into the shard owning each key under view,
// skipping skipID (already-imported or departing shards).
func (r *Router) distribute(view *View, entries []PresenceEntry, skipID string) error {
	byOwner := make(map[string][]PresenceEntry)
	for _, e := range entries {
		owner := view.Ring().Owner(e.ID)
		if owner == skipID {
			continue
		}
		byOwner[owner] = append(byOwner[owner], e)
	}
	var firstErr error
	for id, group := range byOwner {
		node, ok := view.Config.Node(id)
		if !ok {
			continue
		}
		if err := r.importTo(node, group); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// snapshot GETs a shard's full presence table.
func (r *Router) snapshot(n Node) ([]PresenceEntry, error) {
	resp, err := r.http.Get(n.HTTP + "/cluster/snapshot")
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("snapshot %s: %s", n.ID, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBytes))
	if err != nil {
		return nil, err
	}
	var entries []PresenceEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", n.ID, err)
	}
	return entries, nil
}

// importTo POSTs entries to a shard's import endpoint.
func (r *Router) importTo(n Node, entries []PresenceEntry) error {
	if len(entries) == 0 {
		return nil
	}
	data, err := json.Marshal(entries)
	if err != nil {
		return err
	}
	return r.post(n.HTTP+"/cluster/import", data)
}

// forget POSTs a moved-key list to a shard's forget endpoint.
func (r *Router) forget(n Node, ids []string) error {
	data, err := json.Marshal(ids)
	if err != nil {
		return err
	}
	return r.post(n.HTTP+"/cluster/forget", data)
}

// post issues one JSON POST, treating any non-2xx as an error.
func (r *Router) post(url string, body []byte) error {
	resp, err := r.http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: %s", url, resp.Status)
	}
	return nil
}

// healthLoop probes every shard's /healthz, evicting a shard after
// HealthFailures consecutive failures — the live-resharding answer to a
// crashed shard: the epoch bumps, routing parties re-pull the config, and
// the dead shard's keys route to its ring successors.
func (r *Router) healthLoop(interval time.Duration) {
	defer r.wg.Done()
	threshold := r.rcfg.HealthFailures
	if threshold <= 0 {
		threshold = 3
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
			for _, n := range r.Config().Nodes {
				if r.probe(n) {
					r.mu.Lock()
					delete(r.fail, n.ID)
					r.mu.Unlock()
					continue
				}
				r.mu.Lock()
				r.fail[n.ID]++
				evict := r.fail[n.ID] >= threshold
				if evict {
					delete(r.fail, n.ID)
				}
				r.mu.Unlock()
				if evict {
					_ = r.Evict(n.ID) // last-shard removals stay refused
				}
			}
		}
	}
}

// probe checks one shard's liveness endpoint.
func (r *Router) probe(n Node) bool {
	resp, err := r.http.Get(n.HTTP + "/healthz")
	if err != nil {
		return false
	}
	// A body closed unread takes its connection with it; drained, the
	// connection goes back to the pool for the next probe.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	_ = resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Close stops the health loop. The router's HTTP handler keeps answering
// with the last published config if still mounted.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.done)
	r.mu.Unlock()
	r.wg.Wait()
}
