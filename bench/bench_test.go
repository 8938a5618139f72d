package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"d2dhb/internal/hbmsg"
	"d2dhb/internal/loadgen"
	"d2dhb/internal/rec"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, StartNs: 10, EndNs: 30},
		{ID: 2, Parent: 0, StartNs: 20, EndNs: 50},  // overlaps span 1: covered once
		{ID: 3, Parent: 0, StartNs: 90, EndNs: 120}, // clipped to the parent's end
		{ID: 4, Parent: 2, StartNs: 25, EndNs: 45},  // grandchild: only its parent loses it
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{0: 50, 1: 20, 2: 10, 3: 30, 4: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestJoinStages(t *testing.T) {
	ms := time.Millisecond
	events := []stageEvent{
		// Two relayed heartbeats share one flush.
		{At: 0, Kind: evSend, Client: "a", Seq: 1},
		{At: 1 * ms, Kind: evCollect, Client: "a", Seq: 1, Relay: "r"},
		{At: 4 * ms, Kind: evSend, Client: "b", Seq: 1},
		{At: 5 * ms, Kind: evCollect, Client: "b", Seq: 1, Relay: "r"},
		{At: 11 * ms, Kind: evFlush, Relay: "r", Reason: "period-end"},
		{At: 12 * ms, Kind: evDelivery, Client: "a", Seq: 1},
		{At: 12 * ms, Kind: evDelivery, Client: "b", Seq: 1},
		{At: 15 * ms, Kind: evAck, Client: "a", Seq: 1},
		{At: 16 * ms, Kind: evAck, Client: "b", Seq: 1},
		// A direct heartbeat: no collect, no flush, and a duplicate ack.
		{At: 20 * ms, Kind: evSend, Client: "d", Seq: 7},
		{At: 22 * ms, Kind: evDelivery, Client: "d", Seq: 7},
		{At: 23 * ms, Kind: evAck, Client: "d", Seq: 7},
		{At: 24 * ms, Kind: evAck, Client: "d", Seq: 7},
		// Collected after the flush: held for a flush that never comes.
		{At: 30 * ms, Kind: evSend, Client: "a", Seq: 2},
		{At: 31 * ms, Kind: evCollect, Client: "a", Seq: 2, Relay: "r"},
		// A delivery nobody recorded sending is not a heartbeat of this run.
		{At: 40 * ms, Kind: evDelivery, Client: "ghost", Seq: 1},
	}
	// The join must not depend on input order.
	for i, j := 0, len(events)-1; i < j; i, j = i+1, j-1 {
		events[i], events[j] = events[j], events[i]
	}
	b := joinStages(events)
	if b.Heartbeats != 4 || b.DuplicateAcks != 1 || b.Skewed != 0 {
		t.Errorf("heartbeats %d, duplicate acks %d, skewed %d; want 4, 1, 0", b.Heartbeats, b.DuplicateAcks, b.Skewed)
	}
	want := map[string]stageStats{
		"send_to_collect":   {N: 3, P50: 1, P99: 1},
		"collect_to_flush":  {N: 2, P50: 8, P99: 10}, // 10 ms and 6 ms
		"flush_to_delivery": {N: 3, P50: 1, P99: 2},  // relayed 1 ms twice, direct send→delivery 2 ms
		"delivery_to_ack":   {N: 3, P50: 3, P99: 4},  // 3, 4 and the direct 1 ms
	}
	got := map[string]stageStats{
		"send_to_collect": b.SendToCollect, "collect_to_flush": b.CollectToFlush,
		"flush_to_delivery": b.FlushToDelivery, "delivery_to_ack": b.DeliveryToAck,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
	if b.FlushReasons["period-end"] != 1 || len(b.FlushReasons) != 1 {
		t.Errorf("flush reasons %v, want one period-end", b.FlushReasons)
	}
}

func TestMetricNames(t *testing.T) {
	if err := validateDefs(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "has space", "_leading", "slash/inside", strings.Repeat("x", 65)} {
		if validateDefs([]metricDef{{bad, "ms"}}) == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if validateDefs([]metricDef{{"ok", "µs"}}) == nil || validateDefs([]metricDef{{"ok", ""}}) == nil {
		t.Error("bad unit accepted")
	}
	if validateDefs([]metricDef{{"twice", "ms"}}, []metricDef{{"twice", "s"}}) == nil {
		t.Error("duplicate name accepted")
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q breaks the naming contract", w.Name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code's declarations in
// step: same workloads, same metric names and units, setup_s present.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var decl benchmarkDecl
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].Name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: declared %q (why: %q), code has %q", i, w.Name, w.Why, workloads[i].Name)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d + %d metrics, code has %d + %d", len(decl.EndToEnd), len(decl.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range decl.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end %d: declared %s [%s], code has %s [%s]", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v / better %q out of contract", m.Name, m.Bound, m.Better)
		}
	}
	for i, m := range decl.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer %d: declared %s [%s], code has %s [%s]", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}

func TestRelSpread(t *testing.T) {
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := relSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("relSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := relSpread([]float64{9, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("relSpread(9, 11) = %v, want 0.2", got)
	}
}

func TestScheduledSends(t *testing.T) {
	cfg := loadgen.Config{
		UEs: 10, Speedup: 1, Duration: time.Second,
		Profiles: []hbmsg.AppProfile{{Name: "p", Period: 100 * time.Millisecond}},
	}
	// UE i activates at 10·i ms and sends every 100 ms: 11 sends for UE 0,
	// 10 for each of the others.
	if got := scheduledSends(cfg); got != 101 {
		t.Errorf("scheduledSends = %v, want 101", got)
	}
}

func TestEmitAndParse(t *testing.T) {
	o := &outcome{attempted: 7, failed: 1, diags: []diag{{Name: "ack_p50_ms", Value: 1.5, Unit: "ms", N: 7}}}
	o.check("always", true, "fine")
	vals := map[string]float64{"sim_rate": 1, "cpu_us_per_hb": 2, "signalling_ratio": 3, "peak_rss_mb": 4, "setup_s": 5}
	var buf bytes.Buffer
	if err := emit(&buf, "w", endToEnd, vals, o); err != nil {
		t.Fatal(err)
	}
	res, diags, err := parseOutput(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 7 || res.Failed != 1 || len(res.Metrics) != len(endToEnd) ||
		res.Metrics["setup_s"] != (value{5, "s"}) || len(diags) != 1 || diags[0].N != 7 {
		t.Errorf("round trip lost data: %+v %+v", res, diags)
	}
	delete(vals, "setup_s")
	if emit(&buf, "w", endToEnd, vals, o) == nil {
		t.Error("a missing metric was not reported")
	}
}

// TestLiveSmoke drives each live workload's builder at 200 UEs for one
// second, the relayed one with the tracer and recorder attached, so the
// harness cannot rot between benchmark runs.
func TestLiveSmoke(t *testing.T) {
	for _, name := range []string{"live_direct", "live_relayed", "live_trunked"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := liveConfig(name, 1, 200, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			var lt *liveTrace
			if name == "live_relayed" {
				lt = &liveTrace{tracer: &stampTracer{}, recorder: rec.NewRecorder()}
			}
			run, err := runLiveOnce(spec, lt, nil, -1)
			if err != nil {
				t.Fatal(err)
			}
			o := liveOutcome(spec, run)
			for _, c := range o.checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			if run.setup <= 0 || run.cpu <= 0 || o.e2e["sim_rate"] <= 0 {
				t.Errorf("unmeasured run: setup %v cpu %v sim_rate %v", run.setup, run.cpu, o.e2e["sim_rate"])
			}
			if (name == "live_direct") != (o.e2e["signalling_ratio"] == 1) {
				t.Errorf("signalling_ratio = %v", o.e2e["signalling_ratio"])
			}
			if lt != nil {
				tl, err := lt.recorder.Timeline()
				if err != nil {
					t.Fatal(err)
				}
				b := joinStages(stageEvents(tl, lt.tracer))
				if b.Heartbeats == 0 || b.CollectToFlush.N == 0 || b.DeliveryToAck.N == 0 {
					t.Errorf("stage join found nothing: %+v", b)
				}
			}
		})
	}
}
