package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// carries the same names and units (a unit test keeps the two in step);
// the regression bounds live only there.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, so each has one definition per workload kind:
//
//   - sim_rate: simulated (protocol) seconds advanced per wall second of the
//     run phase. city_*: cfg.Duration ÷ run wall. live_*: Speedup × offered
//     duration ÷ the time the open-loop senders took to finish it
//     (Report.ElapsedSec); the load is paced, so it reads the speed-up
//     unless back-pressure stalls the senders.
//   - cpu_us_per_hb: process user+sys CPU ÷ heartbeats delivered. city_*:
//     CPU of the run phase ÷ Report.Deliveries. live_*: CPU from loadgen's
//     first interim report to the end of its drain ÷ heartbeats acked in
//     that time.
//   - signalling_ratio: cellular transmissions per delivered heartbeat, the
//     paper's headline. city_*: Σ RRC.Transmissions ÷ Deliveries. live_*:
//     (Batches + HeartbeatsDirect) ÷ heartbeats delivered at the server(s).
//   - peak_rss_mb: ru_maxrss of the workload's process.
//   - setup_s: population build (city_*) or server/relay/cluster start plus
//     fleet build (live_*), median over the set-ups one invocation makes.
var endToEnd = []metricDef{
	{"sim_rate", "s/s"},
	{"cpu_us_per_hb", "us"},
	{"signalling_ratio", "1/hb"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the single-layer metrics of the traced run. Probe costs are
// the same on every workload; counts-derived shares and the stage budget
// read 0 where the layer is not on the workload's path.
var perLayer = []metricDef{
	{"simtime.ns_per_event", "ns"},
	{"simtime.events", "count"},
	{"simtime.share_of_wall", "ratio"},
	{"d2d.scan_us", "us"},
	{"d2d.beacon_rebuild_ms", "ms"},
	{"d2d.neighborhood_ns", "ns"},
	{"device.residual_share", "ratio"},
	{"sched.collect_ns_m16", "ns"},
	{"sched.collect_ns_live", "ns"},
	{"sched.flush_ns_per_hb_m16", "ns"},
	{"sched.flush_ns_per_hb_live", "ns"},
	{"hbproto.encode_hb_ns", "ns"},
	{"hbproto.decode_hb_ns", "ns"},
	{"hbproto.encode_batch_ns_per_hb_32", "ns"},
	{"hbproto.decode_batch_ns_per_hb_32", "ns"},
	{"hbproto.encode_batch_ns_per_hb_4096", "ns"},
	{"hbproto.decode_batch_ns_per_hb_4096", "ns"},
	{"hbproto.allocs_per_frame", "count"},
	{"relaynet.server_us_per_hb_single", "us"},
	{"relaynet.server_us_per_hb_batch", "us"},
	{"relaynet.conn_setup_us", "us"},
	{"presence.deliver_ns_10k", "ns"},
	{"presence.deliver_ns_200k", "ns"},
	{"cluster.owner_ns", "ns"},
	{"cluster.group_ns_per_key", "ns"},
	{"loadgen.generator_share", "ratio"},
	{"stage.send_to_collect_p50_ms", "ms"},
	{"stage.send_to_collect_p99_ms", "ms"},
	{"stage.collect_to_flush_p50_ms", "ms"},
	{"stage.collect_to_flush_p99_ms", "ms"},
	{"stage.flush_to_delivery_p50_ms", "ms"},
	{"stage.flush_to_delivery_p99_ms", "ms"},
	{"stage.delivery_to_ack_p50_ms", "ms"},
	{"stage.delivery_to_ack_p99_ms", "ms"},
	{"trace_overhead_ratio", "ratio"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks names and units against the benchmark contract and
// rejects duplicates across all the given lists.
func validateDefs(lists ...[]metricDef) error {
	seen := make(map[string]bool)
	for _, defs := range lists {
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) {
				return fmt.Errorf("bad metric name %q", d.Name)
			}
			if !unitRE.MatchString(d.Unit) {
				return fmt.Errorf("bad unit %q for %s", d.Unit, d.Name)
			}
			if seen[d.Name] {
				return fmt.Errorf("duplicate metric name %q", d.Name)
			}
			seen[d.Name] = true
		}
	}
	return nil
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// pack builds the metrics object for defs from vals. A missing or
// non-finite value is an error: the contract wants every declared metric on
// every run.
func pack(defs []metricDef, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s missing or not finite (%v)", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// diag is one diagnostic printed beside the gated metrics: it does not
// gate until a later issue shows it repeats within a bound.
type diag struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n,omitempty"` // sample count, where the value is a quantile
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by nearest rank on a sorted copy.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile for a slice already in ascending order.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 0 && q == 0.5 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and finite floats reach here
	}
	return string(b)
}
