package cluster

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"d2dhb/internal/telemetry"
)

// DefaultPollInterval is how often a Client refetches the router config
// when no interval is configured. Epoch boundaries therefore propagate to
// every routing party within about one interval.
const DefaultPollInterval = 250 * time.Millisecond

// ClientConfig parameterizes a cluster config client.
type ClientConfig struct {
	// RouterURL is the router's base URL (e.g. "http://127.0.0.1:7590").
	// The client fetches RouterURL + "/cluster/config".
	RouterURL string
	// PollInterval is the config refresh period; zero selects
	// DefaultPollInterval. Negative disables background polling (the
	// config only changes through Refresh calls).
	PollInterval time.Duration
	// VirtualNodes is the ring vnode count; zero selects
	// DefaultVirtualNodes. Every party in one cluster must use one value.
	VirtualNodes int
	// HTTPTimeout bounds each config fetch; zero selects 2 s.
	HTTPTimeout time.Duration
	// Telemetry, when non-nil, registers the client's ring-epoch gauge and
	// refresh counters.
	Telemetry *telemetry.Registry
}

// Client tracks the cluster's current routing view. The view swaps
// atomically at epoch boundaries: a party that grabs View() once routes an
// entire batch against one consistent epoch.
type Client struct {
	cfg  ClientConfig
	http *http.Client

	view atomic.Pointer[View]
	// owner is OwnerAddr as a function value, made once: see Owner.
	owner func(id string) string

	refreshes    *telemetry.Counter
	refreshFails *telemetry.Counter

	mu     sync.Mutex
	done   chan struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewClient builds a client and performs the initial config fetch (a
// cluster party cannot route without a view, so construction fails if the
// router is unreachable). With PollInterval >= 0 a background refresher
// keeps the view current until Close.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.RouterURL == "" {
		return nil, fmt.Errorf("cluster: empty router URL")
	}
	to := cfg.HTTPTimeout
	if to <= 0 {
		to = 2 * time.Second
	}
	c := &Client{
		cfg:  cfg,
		http: &http.Client{Timeout: to},
		done: make(chan struct{}),
	}
	c.owner = c.OwnerAddr
	if reg := cfg.Telemetry; reg != nil {
		c.refreshes = reg.Counter("cluster_config_refreshes_total")
		c.refreshFails = reg.Counter("cluster_config_refresh_failures_total")
		reg.GaugeFunc("cluster_ring_epoch", func() float64 {
			return float64(c.View().Epoch())
		})
		reg.GaugeFunc("cluster_ring_nodes", func() float64 {
			return float64(c.View().Ring().Size())
		})
	}
	if err := c.Refresh(); err != nil {
		return nil, err
	}
	if cfg.PollInterval >= 0 {
		interval := cfg.PollInterval
		if interval == 0 {
			interval = DefaultPollInterval
		}
		c.wg.Add(1)
		go c.poll(interval)
	}
	return c, nil
}

// NewStaticClient builds a client pinned to a fixed config — no router, no
// polling. In-process wiring (tests, the launcher's own shards) and
// single-server deployments use it; Refresh is a no-op.
func NewStaticClient(cfg Config, vnodes int) (*Client, error) {
	view, err := NewView(cfg, vnodes)
	if err != nil {
		return nil, err
	}
	c := &Client{done: make(chan struct{})}
	c.owner = c.OwnerAddr
	c.view.Store(view)
	return c, nil
}

// NewSingleNodeClient routes every key to the one server at addr: a fixed
// server address is a static one-node view whose node ID is the address.
// Every live client takes a *Client, so this is how a single-server
// deployment reaches the same routing path a cluster does.
func NewSingleNodeClient(addr string) (*Client, error) {
	if addr == "" {
		return nil, fmt.Errorf("cluster: empty server address")
	}
	return NewStaticClient(Config{Nodes: []Node{{ID: addr, Addr: addr}}}, 1)
}

// View returns the current routing view. Never nil after construction.
func (c *Client) View() *View { return c.view.Load() }

// OwnerAddr returns the hbproto address of the node owning a client ID
// under the current view.
func (c *Client) OwnerAddr(id string) string {
	node, _ := c.View().Owner(id)
	return node.Addr
}

// Owner returns OwnerAddr as one function value per client, for the many
// session slots that resolve through it: a method value per slot would
// cost each an allocation.
func (c *Client) Owner() func(id string) string { return c.owner }

// NodeAddr returns a node's hbproto address under the current view, ""
// once the node has left it.
func (c *Client) NodeAddr(id string) string {
	node, _ := c.View().Config.Node(id)
	return node.Addr
}

// Epoch returns the current config epoch.
func (c *Client) Epoch() uint64 { return c.View().Epoch() }

// Refresh fetches the router config once and swaps the view if the epoch
// advanced. Static clients return nil without fetching.
func (c *Client) Refresh() error {
	if c.cfg.RouterURL == "" {
		return nil
	}
	cfg, err := FetchConfig(c.http, c.cfg.RouterURL)
	if err != nil {
		c.refreshFails.Inc()
		return err
	}
	c.refreshes.Inc()
	cur := c.view.Load()
	if cur != nil && cfg.Epoch <= cur.Epoch() {
		return nil // never step an epoch backwards
	}
	view, err := NewView(cfg, c.cfg.VirtualNodes)
	if err != nil {
		c.refreshFails.Inc()
		return err
	}
	c.view.Store(view)
	return nil
}

// FetchConfig GETs and validates baseURL + "/cluster/config".
func FetchConfig(hc *http.Client, baseURL string) (Config, error) {
	resp, err := hc.Get(baseURL + "/cluster/config")
	if err != nil {
		return Config{}, fmt.Errorf("cluster: config fetch: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return Config{}, fmt.Errorf("cluster: config fetch: %s", resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return Config{}, fmt.Errorf("cluster: config read: %w", err)
	}
	return UnmarshalConfig(data)
}

// poll refreshes the view until Close.
func (c *Client) poll(interval time.Duration) {
	defer c.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			// A transient router outage keeps the last good view: routing
			// degrades to a stale epoch, never to no epoch.
			_ = c.Refresh()
		}
	}
}

// Close stops the background refresher.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.done)
	c.mu.Unlock()
	c.wg.Wait()
}
