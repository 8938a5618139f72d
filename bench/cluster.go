package main

import (
	"fmt"
	"net"
	"net/http"

	"d2dhb/internal/cluster"
	"d2dhb/internal/relaynet"
	"d2dhb/internal/telemetry"
	"d2dhb/internal/trace"
)

// benchCluster is an in-process presence cluster built the way
// internal/loadgen/cluster_test.go builds one: per shard a relaynet.Server
// with its telemetry registry, health flag and cluster.NodeAgent behind one
// HTTP listener, plus a cluster.Router serving the epoch-versioned config.
type benchCluster struct {
	url    string
	router *cluster.Router
	web    *http.Server
	shards []benchShard
}

type benchShard struct {
	srv *relaynet.Server
	web *telemetry.Server
}

// startCluster boots n shards and the router on loopback. tr, when
// non-nil, is attached to every shard's server.
func startCluster(n int, tr trace.Tracer) (_ *benchCluster, err error) {
	c := &benchCluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	nodes := make([]cluster.Node, n)
	for i := range nodes {
		srv := relaynet.NewServer()
		reg := telemetry.NewRegistry()
		srv.SetTelemetry(reg)
		if tr != nil {
			srv.SetTracer(tr)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		health := telemetry.NewHealth()
		web, err := telemetry.Serve("127.0.0.1:0", reg,
			telemetry.WithHealth(health),
			telemetry.WithHandler("/cluster/", cluster.NewNodeAgent(srv, health).Handler()))
		if err != nil {
			srv.Shutdown()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		c.shards = append(c.shards, benchShard{srv: srv, web: web})
		nodes[i] = cluster.Node{ID: fmt.Sprintf("shard-%d", i), Addr: srv.Addr(), HTTP: "http://" + web.Addr()}
	}
	c.router, err = cluster.NewRouter(cluster.RouterConfig{Initial: cluster.Config{Epoch: 1, Nodes: nodes}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("router listen: %w", err)
	}
	c.web = &http.Server{Handler: c.router.Handler()}
	go func() { _ = c.web.Serve(ln) }() // returns once close() closes the server
	c.url = "http://" + ln.Addr().String()
	return c, nil
}

// stats sums the shards' server counters.
func (c *benchCluster) stats() relaynet.ServerStats {
	var sum relaynet.ServerStats
	for _, sh := range c.shards {
		st := sh.srv.Stats()
		sum.Connections += st.Connections
		sum.HeartbeatsDirect += st.HeartbeatsDirect
		sum.HeartbeatsRelayed += st.HeartbeatsRelayed
		sum.Batches += st.Batches
		sum.Late += st.Late
		sum.ProtocolErrors += st.ProtocolErrors
		sum.Misrouted += st.Misrouted
	}
	return sum
}

func (c *benchCluster) close() {
	if c.web != nil {
		_ = c.web.Close()
	}
	if c.router != nil {
		c.router.Close()
	}
	for _, sh := range c.shards {
		sh.srv.Shutdown()
		sh.web.Close()
	}
}
