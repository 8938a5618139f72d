package loadgen

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"d2dhb/internal/metrics"
	"d2dhb/internal/relaynet"
	"d2dhb/internal/telemetry"
)

// LatencyStats summarizes one path's heartbeat→ack latency distribution in
// milliseconds.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
	P999Ms float64 `json:"p999Ms"`
	MaxMs  float64 `json:"maxMs"`
}

func latencyStats(s *telemetry.HistSnapshot) LatencyStats {
	us := func(v uint64) float64 { return float64(v) / 1000 }
	return LatencyStats{
		Count:  s.Count(),
		MeanMs: s.Mean() / 1000,
		P50Ms:  us(s.Quantile(0.50)),
		P95Ms:  us(s.Quantile(0.95)),
		P99Ms:  us(s.Quantile(0.99)),
		P999Ms: us(s.Quantile(0.999)),
		MaxMs:  us(s.Max()),
	}
}

// RelayStats aggregates the run's relay agents.
type RelayStats struct {
	Collected int `json:"collected"`
	Forwarded int `json:"forwarded"`
	Flushes   int `json:"flushes"`
	Rejected  int `json:"rejected"`
	// ReaderFlushTurns counts the relays' turns that a UE reader ran and
	// in which its relay flushed (relaynet.RelayAgent.ReaderFlushTurns).
	ReaderFlushTurns int `json:"reader_flush_turns,omitempty"`
	// RoutesExpired counts feedback routes the relays dropped because their
	// UE's ack window closed before a shard acknowledged the heartbeat.
	RoutesExpired int `json:"routes_expired,omitempty"`
}

// Report is one load-generation measurement: cumulative counts since run
// start plus latency quantiles per path. Periodic reports have Final false.
type Report struct {
	Final      bool    `json:"final"`
	ElapsedSec float64 `json:"elapsedSec"`

	UEs        int     `json:"ues"`
	RelayedUEs int     `json:"relayedUEs"`
	Relays     int     `json:"relays"`
	Arrival    string  `json:"arrival"`
	Speedup    float64 `json:"speedup"`

	Sent     uint64 `json:"sent"`
	Acked    uint64 `json:"acked"`
	Timeouts uint64 `json:"timeouts"`
	Errors   uint64 `json:"errors"` // dial + write failures

	SentDirect      uint64 `json:"sentDirect"`
	SentRelayed     uint64 `json:"sentRelayed"`
	AckedDirect     uint64 `json:"ackedDirect"`
	AckedRelayed    uint64 `json:"ackedRelayed"`
	TimeoutsDirect  uint64 `json:"timeoutsDirect"`
	TimeoutsRelayed uint64 `json:"timeoutsRelayed"`
	DialErrors      uint64 `json:"dialErrors"`
	WriteErrors     uint64 `json:"writeErrors"`
	OutOfOrderAcks  uint64 `json:"outOfOrderAcks"`
	// FallbackResends counts relayed heartbeats re-sent directly to their
	// owning shard after the relay path missed the ack window. A resend
	// that gets acked keeps the heartbeat out of Timeouts.
	FallbackResends uint64 `json:"fallbackResends,omitempty"`
	// RelayReconnects counts the socket-per-UE fleet's relay connections,
	// first dials included: a fallback drops the UE's relay link, so each
	// fallback resend costs one more dial on the UE's next send.
	RelayReconnects uint64 `json:"relayReconnects,omitempty"`

	// Trunks is the trunked-fleet size (Config.Trunks); zero in socket-per-UE
	// runs.
	Trunks int `json:"trunks,omitempty"`
	// TrunkWrites/TrunkFrames account the coalesced trunk uplink: Batch
	// frames composed vs conn.Write calls issued (frames − writes is the
	// syscall count the single-buffer flush saved). Zero without trunks.
	TrunkWrites uint64 `json:"trunkWrites,omitempty"`
	TrunkFrames uint64 `json:"trunkFrames,omitempty"`

	// OfferedHBps is the sent rate, ThroughputHBps the acknowledged rate.
	OfferedHBps    float64 `json:"offeredHBps"`
	ThroughputHBps float64 `json:"throughputHBps"`

	Overall LatencyStats `json:"overall"`
	Direct  LatencyStats `json:"direct"`
	Relayed LatencyStats `json:"relayed"`

	// Server holds the in-process presence server's counters; nil when the
	// run targeted an external server.
	Server *relaynet.ServerStats `json:"server,omitempty"`
	// Relay aggregates the in-process relay agents; nil without relays.
	Relay *RelayStats `json:"relay,omitempty"`
	// ServerMetrics is the target server's telemetry dump, scraped from its
	// /metrics.json endpoint for the final report when Config.MetricsAddr
	// is set; nil otherwise or when the scrape failed.
	ServerMetrics *telemetry.Dump `json:"serverMetrics,omitempty"`
	// ClusterEpoch is the ring epoch the fleet last observed (0 for a
	// single server, a static one-node view).
	ClusterEpoch uint64 `json:"clusterEpoch,omitempty"`
	// ShardSent counts heartbeats the fleet addressed to each shard (a
	// single server is the shard named by its address); trunked runs fill
	// it from their per-batch routing.
	ShardSent map[string]uint64 `json:"shardSent,omitempty"`
	// ShardMetrics holds each shard's telemetry dump, scraped through the
	// cluster config's HTTP endpoints for the final report (cluster mode:
	// a single server has none); shards whose scrape failed are absent.
	ShardMetrics map[string]*telemetry.Dump `json:"shardMetrics,omitempty"`
}

// snapshot assembles a cumulative report at the given elapsed time.
func (r *Runner) snapshot(elapsed time.Duration, final bool) Report {
	direct := r.histDirect.Snapshot()
	relayed := r.histRelay.Snapshot()
	overall := r.histDirect.Snapshot().Merge(relayed)

	rep := Report{
		Final:      final,
		ElapsedSec: elapsed.Seconds(),
		UEs:        r.cfg.UEs,
		RelayedUEs: r.relayedUEs,
		Relays:     len(r.relays),
		Arrival:    r.cfg.Arrival.Shape.String(),
		Speedup:    r.cfg.Speedup,
		Trunks:     r.cfg.Trunks,

		Overall: latencyStats(overall),
		Direct:  latencyStats(direct),
		Relayed: latencyStats(relayed),
	}
	r.count(&rep)
	if sec := elapsed.Seconds(); sec > 0 {
		rep.OfferedHBps = float64(rep.Sent) / sec
		rep.ThroughputHBps = float64(rep.Acked) / sec
	}
	if r.server != nil {
		st := r.server.Stats()
		rep.Server = &st
	}
	if len(r.relays) > 0 {
		agg := RelayStats{}
		for _, ra := range r.relays {
			st := ra.Stats()
			agg.Collected += st.Collected
			agg.Forwarded += st.ForwardedSent
			agg.Flushes += st.Flushes
			agg.ReaderFlushTurns += ra.ReaderFlushTurns()
			agg.Rejected += st.RejectedClosed + st.RejectedExpired
			agg.RoutesExpired += st.RoutesExpired
		}
		rep.Relay = &agg
	}
	// Telemetry dumps ride on the final report only: no interim consumer
	// reads them, and an HTTP round trip per shard on the reporter's tick
	// holds the report back by however long the scrape takes to be
	// scheduled (milliseconds when it meets a collection at fleet start).
	if final && r.cfg.MetricsAddr != "" {
		if d, err := ScrapeDump(r.cfg.MetricsAddr, 2*time.Second); err == nil {
			rep.ServerMetrics = d
		}
	}
	view := r.cluster.View()
	rep.ClusterEpoch = view.Config.Epoch
	rep.ShardSent = r.shardSent.snapshot()
	if final {
		rep.ShardMetrics = make(map[string]*telemetry.Dump, len(view.Config.Nodes))
		for _, n := range view.Config.Nodes {
			if n.HTTP == "" {
				continue
			}
			if d, err := ScrapeDumpURL(n.HTTP, time.Second); err == nil {
				rep.ShardMetrics[n.ID] = d
			}
		}
	}
	return rep
}

// count fills rep's delivery accounting: the trunks' shared counters plus
// each UE's own, under the path the UE was built for.
func (r *Runner) count(rep *Report) {
	c := &r.counters
	rep.SentRelayed, rep.AckedRelayed, rep.TimeoutsRelayed = c.sentRelayed.Load(), c.ackedRelayed.Load(), c.timeoutRelayed.Load()
	rep.DialErrors, rep.WriteErrors = c.dialErrors.Load(), c.writeErrors.Load()
	rep.OutOfOrderAcks, rep.FallbackResends = c.outOfOrderAcks.Load(), c.fallbackResends.Load()
	rep.TrunkWrites, rep.TrunkFrames = c.trunkWrites.Load(), c.trunkFrames.Load()
	for i, unit := range r.units {
		u, ok := unit.(*relaynet.UEClient)
		if !ok {
			continue
		}
		st := u.Stats()
		sent, acked, timeouts := &rep.SentDirect, &rep.AckedDirect, &rep.TimeoutsDirect
		if i < r.relayedUEs {
			sent, acked, timeouts = &rep.SentRelayed, &rep.AckedRelayed, &rep.TimeoutsRelayed
		}
		*sent += uint64(st.ViaRelay + st.Direct)
		*acked += uint64(st.Acked)
		*timeouts += uint64(st.Timeouts)
		rep.DialErrors += uint64(st.DialErrors)
		rep.WriteErrors += uint64(st.WriteErrors)
		rep.OutOfOrderAcks += uint64(st.OutOfOrderAcks)
		rep.FallbackResends += uint64(st.FallbackResends)
		rep.RelayReconnects += uint64(st.RelayReconnects)
	}
	rep.Sent = rep.SentDirect + rep.SentRelayed
	rep.Acked = rep.AckedDirect + rep.AckedRelayed
	rep.Timeouts = rep.TimeoutsDirect + rep.TimeoutsRelayed
	rep.Errors = rep.DialErrors + rep.WriteErrors
}

// LatencyTable renders the per-path latency quantiles.
func (rep Report) LatencyTable() *metrics.Table {
	t := metrics.NewTable("heartbeat→ack latency (ms)",
		"path", "count", "mean", "p50", "p95", "p99", "p999", "max")
	add := func(name string, s LatencyStats) {
		t.AddRow(name, fmt.Sprintf("%d", s.Count),
			metrics.F(s.MeanMs), metrics.F(s.P50Ms), metrics.F(s.P95Ms),
			metrics.F(s.P99Ms), metrics.F(s.P999Ms), metrics.F(s.MaxMs))
	}
	add("direct", rep.Direct)
	add("relayed", rep.Relayed)
	add("overall", rep.Overall)
	return t
}

// CountsTable renders throughput and delivery accounting.
func (rep Report) CountsTable() *metrics.Table {
	t := metrics.NewTable("delivery accounting",
		"metric", "total", "direct", "relayed")
	row := func(name string, total, d, rl uint64) {
		t.AddRow(name, fmt.Sprintf("%d", total), fmt.Sprintf("%d", d), fmt.Sprintf("%d", rl))
	}
	row("sent", rep.Sent, rep.SentDirect, rep.SentRelayed)
	row("acked", rep.Acked, rep.AckedDirect, rep.AckedRelayed)
	row("timeouts", rep.Timeouts, rep.TimeoutsDirect, rep.TimeoutsRelayed)
	if rep.FallbackResends > 0 {
		// Resends are not re-counted in sent, so acked can exceed sent by
		// up to this row.
		row("fallback resends", rep.FallbackResends, 0, rep.FallbackResends)
	}
	if rep.RelayReconnects > 0 {
		row("relay reconnects", rep.RelayReconnects, 0, rep.RelayReconnects)
	}
	t.AddRow("errors", fmt.Sprintf("%d", rep.Errors),
		fmt.Sprintf("dial=%d", rep.DialErrors), fmt.Sprintf("write=%d", rep.WriteErrors))
	t.AddRow("out-of-order acks", fmt.Sprintf("%d", rep.OutOfOrderAcks), "", "")
	return t
}

// ShardTable renders per-shard routing and occupancy: heartbeats the
// fleet addressed to each shard next to the shard's own presence gauge and
// misroute counter from its metrics scrape (cluster targets only). Nil
// when the report has neither.
func (rep Report) ShardTable() *metrics.Table {
	if len(rep.ShardSent) == 0 && len(rep.ShardMetrics) == 0 {
		return nil
	}
	ids := make(map[string]struct{}, len(rep.ShardSent)+len(rep.ShardMetrics))
	for id := range rep.ShardSent {
		ids[id] = struct{}{}
	}
	for id := range rep.ShardMetrics {
		ids[id] = struct{}{}
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)

	t := metrics.NewTable(fmt.Sprintf("cluster shards (ring epoch %d)", rep.ClusterEpoch),
		"shard", "sent", "clients", "misrouted")
	for _, id := range sorted {
		clients, misrouted := "-", "-"
		if d := rep.ShardMetrics[id]; d != nil {
			if m := d.Find("relaynet_server_presence_clients"); m != nil {
				clients = fmt.Sprintf("%.0f", m.Value)
			}
			if m := d.Find("relaynet_server_misrouted_frames_total"); m != nil {
				misrouted = fmt.Sprintf("%.0f", m.Value)
			}
		}
		t.AddRow(id, fmt.Sprintf("%d", rep.ShardSent[id]), clients, misrouted)
	}
	return t
}

// String renders the full human-readable report.
func (rep Report) String() string {
	var b strings.Builder
	kind := "interim"
	if rep.Final {
		kind = "final"
	}
	fmt.Fprintf(&b, "loadgen %s report — %d UEs (%d relayed via %d relays), arrival %s, speedup %s, elapsed %.1fs\n",
		kind, rep.UEs, rep.RelayedUEs, rep.Relays, rep.Arrival, metrics.F(rep.Speedup), rep.ElapsedSec)
	if rep.Trunks > 0 {
		fmt.Fprintf(&b, "trunked fleet: %d trunks, ~%d users per trunk connection\n",
			rep.Trunks, rep.UEs/rep.Trunks)
	}
	fmt.Fprintf(&b, "throughput %.1f hb/s acked (%.1f hb/s offered)\n\n",
		rep.ThroughputHBps, rep.OfferedHBps)
	b.WriteString(rep.CountsTable().String())
	b.WriteByte('\n')
	b.WriteString(rep.LatencyTable().String())
	if rep.Server != nil {
		fmt.Fprintf(&b, "\nserver: conns=%d direct=%d relayed=%d batches=%d late=%d protoErrs=%d idleDrops=%d idGuess=%d/%d (hits/misses)\n",
			rep.Server.Connections, rep.Server.HeartbeatsDirect, rep.Server.HeartbeatsRelayed,
			rep.Server.Batches, rep.Server.Late, rep.Server.ProtocolErrors, rep.Server.IdleDrops,
			rep.Server.IDGuessHits, rep.Server.IDGuessMisses)
	}
	if rep.Relay != nil {
		fmt.Fprintf(&b, "relays: collected=%d forwarded=%d flushes=%d (on UE readers %d) rejected=%d routes_expired=%d\n",
			rep.Relay.Collected, rep.Relay.Forwarded, rep.Relay.Flushes, rep.Relay.ReaderFlushTurns, rep.Relay.Rejected, rep.Relay.RoutesExpired)
	}
	if st := rep.ShardTable(); st != nil {
		b.WriteByte('\n')
		b.WriteString(st.String())
		if rep.FallbackResends > 0 {
			fmt.Fprintf(&b, "fallback resends: %d\n", rep.FallbackResends)
		}
		if rep.RelayReconnects > 0 {
			fmt.Fprintf(&b, "relay reconnects: %d\n", rep.RelayReconnects)
		}
	}
	if rep.ServerMetrics != nil {
		b.WriteByte('\n')
		b.WriteString(rep.ServerMetrics.Table().String())
	}
	return b.String()
}

// JSON renders the report as indented JSON.
func (rep Report) JSON() ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}
