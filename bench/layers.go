package main

import (
	"fmt"
	"io"
)

// layerRow is one line of the per-layer attribution: a probe's cost times
// the operation count the traced pass reported.
type layerRow struct {
	Layer string
	Cost  float64
	Unit  string
	Count float64
	Sec   float64 // estimated time spent: cost × count
}

// attribute multiplies probe costs by a pass's counts. Rows whose layer is
// not on the workload's path have a zero count. The simulator rows are
// disjoint and sum towards the run; the relaynet.server rows are inclusive
// of codec and presence work done inside the server, so on live workloads
// the rows overlap and are read one at a time.
func attribute(p map[string]float64, n layerCounts) []layerRow {
	row := func(layer string, cost float64, unit string, perSec float64, count float64) layerRow {
		return layerRow{Layer: layer, Cost: cost, Unit: unit, Count: count, Sec: cost * count / perSec}
	}
	const ns, us, ms = 1e9, 1e6, 1e3
	rows := []layerRow{row("simtime.ns_per_event", p["simtime.ns_per_event"], "ns", ns, n.events)}
	if n.windows > 0 { // parallel kernel: discovery reads BeaconIndex snapshots
		rows = append(rows,
			row("d2d.scan_us", p["d2d.scan_us"], "us", us, 0),
			row("d2d.beacon_rebuild_ms", p["d2d.beacon_rebuild_ms"], "ms", ms, n.windows),
			row("d2d.neighborhood_ns", p["d2d.neighborhood_ns"], "ns", ns, n.scans))
	} else {
		rows = append(rows,
			row("d2d.scan_us", p["d2d.scan_us"], "us", us, n.scans),
			row("d2d.beacon_rebuild_ms", p["d2d.beacon_rebuild_ms"], "ms", ms, 0),
			row("d2d.neighborhood_ns", p["d2d.neighborhood_ns"], "ns", ns, 0))
	}
	size, presenceSize := "m16", "10k"
	if n.events == 0 { // live stack: loadgen-sized relays, fleet-sized presence
		size = "live"
		if n.clients > 50_000 {
			presenceSize = "200k"
		}
	}
	batch := "32"
	if n.batches > 0 && n.batchedHBs/n.batches > 256 {
		batch = "4096"
	}
	rows = append(rows,
		row("sched.collect_ns_"+size, p["sched.collect_ns_"+size], "ns", ns, n.collected),
		row("sched.flush_ns_per_hb_"+size, p["sched.flush_ns_per_hb_"+size], "ns", ns, n.flushedHBs),
		row("presence.deliver_ns_"+presenceSize, p["presence.deliver_ns_"+presenceSize], "ns", ns, n.deliveries),
		row("hbproto.encode_hb_ns", p["hbproto.encode_hb_ns"], "ns", ns, n.hbFrames),
		row("hbproto.decode_hb_ns", p["hbproto.decode_hb_ns"], "ns", ns, n.hbFrames),
		row("hbproto.encode_batch_ns_per_hb_"+batch, p["hbproto.encode_batch_ns_per_hb_"+batch], "ns", ns, n.batchedHBs),
		row("hbproto.decode_batch_ns_per_hb_"+batch, p["hbproto.decode_batch_ns_per_hb_"+batch], "ns", ns, n.batchedHBs),
		row("relaynet.server_us_per_hb_single", p["relaynet.server_us_per_hb_single"], "us", us, n.directHBs),
		row("relaynet.server_us_per_hb_batch", p["relaynet.server_us_per_hb_batch"], "us", us, n.batchedHBs),
		row("relaynet.conn_setup_us", p["relaynet.conn_setup_us"], "us", us, n.conns),
		row("cluster.group_ns_per_key", p["cluster.group_ns_per_key"], "ns", ns, n.routedKeys),
	)
	return rows
}

// shares derives the share metrics from the attribution rows.
func shares(rows []layerRow, n layerCounts) map[string]float64 {
	sec := make(map[string]float64)
	for _, r := range rows {
		sec[r.Layer] = r.Sec
	}
	out := map[string]float64{
		"simtime.events":          n.events,
		"simtime.share_of_wall":   0,
		"device.residual_share":   0,
		"loadgen.generator_share": 0,
	}
	if n.events > 0 { // simulator: the disjoint rows against the run's CPU
		out["simtime.share_of_wall"] = sec["simtime.ns_per_event"] / n.wallSec
		known := 0.0
		for _, r := range rows {
			known += r.Sec
		}
		out["device.residual_share"] = 1 - known/n.cpuSec
	} else {
		server := sec["relaynet.server_us_per_hb_single"] + sec["relaynet.server_us_per_hb_batch"]
		out["loadgen.generator_share"] = 1 - server/n.cpuSec
	}
	return out
}

func writeLayerTable(w io.Writer, rows []layerRow, n layerCounts) {
	fmt.Fprintf(w, "layer attribution over %.3f s wall, %.3f s CPU of the traced pass's run phase\n", n.wallSec, n.cpuSec)
	for _, r := range rows {
		fmt.Fprintf(w, "layer %-36s %12.4f %-2s x %12.0f = %8.4f s  %6.2f%% wall %6.2f%% cpu\n",
			r.Layer, r.Cost, r.Unit, r.Count, r.Sec, 100*r.Sec/n.wallSec, 100*r.Sec/n.cpuSec)
	}
}
