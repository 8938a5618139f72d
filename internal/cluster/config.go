package cluster

import (
	"encoding/json"
	"fmt"
	"slices"
)

// Node is one presence shard in the cluster config.
type Node struct {
	// ID is the shard's stable identity (the ring hashes IDs, not
	// addresses, so a shard can restart on a new port without moving keys).
	ID string `json:"id"`
	// Addr is the shard's hbproto listener (relays and UEs dial it).
	Addr string `json:"addr"`
	// HTTP is the shard's telemetry/admin listener: /healthz, /readyz,
	// /metrics[.json] and the /cluster/{snapshot,import,draining} handoff
	// endpoints.
	HTTP string `json:"http"`
}

// Config is one epoch of cluster membership. Epochs are totally ordered:
// every reshard (join, drain, eviction) publishes a new config with a
// higher epoch, and routing parties switch rings atomically at the epoch
// boundary — a party never mixes two epochs inside one batch.
type Config struct {
	Epoch uint64 `json:"epoch"`
	Nodes []Node `json:"nodes"`
}

// Validate checks the config is routable: at least one node, no duplicate
// IDs, no empty ID/Addr.
func (c Config) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("cluster: config epoch %d has no nodes", c.Epoch)
	}
	seen := make(map[string]bool, len(c.Nodes))
	for _, n := range c.Nodes {
		if n.ID == "" || n.Addr == "" {
			return fmt.Errorf("cluster: config epoch %d has node with empty id/addr (%+v)", c.Epoch, n)
		}
		if seen[n.ID] {
			return fmt.Errorf("cluster: config epoch %d duplicates node %q", c.Epoch, n.ID)
		}
		seen[n.ID] = true
	}
	return nil
}

// Node returns the node with the given ID.
func (c Config) Node(id string) (Node, bool) {
	for _, n := range c.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// IDs returns the node IDs in config order.
func (c Config) IDs() []string {
	ids := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		ids[i] = n.ID
	}
	return ids
}

// clone returns a deep copy.
func (c Config) clone() Config {
	return Config{Epoch: c.Epoch, Nodes: slices.Clone(c.Nodes)}
}

// View is an immutable (config, ring) pair — one epoch's routing table.
// Every lookup a party performs against one View is internally consistent;
// switching Views is how an epoch boundary takes effect.
type View struct {
	Config Config
	ring   *Ring
}

// NewView builds the routing view for a config (vnodes 0 selects
// DefaultVirtualNodes).
func NewView(cfg Config, vnodes int) (*View, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ring, err := NewRing(cfg.IDs(), vnodes)
	if err != nil {
		return nil, err
	}
	return &View{Config: cfg, ring: ring}, nil
}

// Epoch returns the view's config epoch.
func (v *View) Epoch() uint64 { return v.Config.Epoch }

// Ring returns the view's hash ring.
func (v *View) Ring() *Ring { return v.ring }

// Owner resolves the shard owning a client ID.
func (v *View) Owner(key string) (Node, bool) {
	return v.Config.Node(v.ring.Owner(key))
}

// MarshalConfig encodes a config as the wire JSON the router serves.
func MarshalConfig(c Config) ([]byte, error) { return json.Marshal(c) }

// UnmarshalConfig decodes and validates a router config response.
func UnmarshalConfig(data []byte) (Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("cluster: bad config JSON: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// PresenceEntry is one client's presence state on the wire during a drain
// handoff: the client table row plus the per-client delivered-sequence
// high-water mark, so the successor resumes exactly where the departing
// shard stopped (no lost presence, no regressed sequence accounting).
type PresenceEntry struct {
	ID string `json:"id"`
	// App is the client's (last) heartbeat app.
	App string `json:"app"`
	// LastSeenUnixNano is the last heartbeat arrival instant.
	LastSeenUnixNano int64 `json:"last_seen_unix_nano"`
	// DeadlineUnixNano is the presence expiration instant.
	DeadlineUnixNano int64 `json:"deadline_unix_nano"`
	// MaxSeq is the highest heartbeat sequence delivered for this client —
	// the pending-ack high-water mark a successor must not regress.
	MaxSeq uint64 `json:"max_seq"`
}

// Store is the shard-side presence state a cluster node agent drains and
// restores. relaynet.Server implements it.
type Store interface {
	// ExportPresence snapshots every tracked client.
	ExportPresence() []PresenceEntry
	// ImportPresence merges entries into the table, keeping the later
	// deadline/lastSeen and the higher sequence high-water per client (an
	// import never regresses fresher state the shard already holds).
	ImportPresence([]PresenceEntry)
	// ForgetPresence drops clients whose keys moved to another shard, so
	// per-shard occupancy stays truthful after a join reshard.
	ForgetPresence(ids []string)
}
