package main

import "fmt"

// workloadDef is one workload. BENCHMARK.json and README.md say why each is
// in the set.
type workloadDef struct {
	Name string
	run  func(runCtx) (*outcome, error)
}

var workloads = []workloadDef{
	{"city_seq", func(c runCtx) (*outcome, error) { return runCity(c, false) }},
	{"city_par", func(c runCtx) (*outcome, error) { return runCity(c, true) }},
	{"live_direct", func(c runCtx) (*outcome, error) { return runLive(c, "live_direct") }},
	{"live_relayed", func(c runCtx) (*outcome, error) { return runLive(c, "live_relayed") }},
	{"live_trunked", func(c runCtx) (*outcome, error) { return runLive(c, "live_trunked") }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runCtx is what one pass over a workload is given. The program under test
// sees only the inputs generated from seed, never the workload name.
type runCtx struct {
	seed    int64
	seconds float64
	traced  bool
	spans   *spanLog // nil when untraced
}

// check is one correctness assertion evaluated by the benchmark.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// layerCounts are the operation counts one pass reports, the multipliers
// for the per-layer probe costs.
type layerCounts struct {
	wallSec float64 // run-phase wall time the counts belong to
	cpuSec  float64 // process CPU over the same phase

	events      float64 // simtime events fired
	scans       float64 // Medium.Scan / BeaconIndex.Neighborhood calls
	windows     float64 // parallel-kernel windows (one beacon rebuild each)
	collected   float64 // heartbeats admitted by Algorithm 1
	flushedHBs  float64 // heartbeats flushed by Algorithm 1
	deliveries  float64 // presence.Tracker.Deliver calls
	clients     float64 // population the presence layer tracks
	hbFrames    float64 // single-heartbeat frames on the wire (UE → server and UE → relay)
	directHBs   float64 // single-heartbeat frames the server handled
	batchedHBs  float64 // heartbeats carried in Batch frames
	batches     float64 // Batch frames the server handled
	routedKeys  float64 // keys grouped through cluster.Ring
	conns       float64 // connections the server accepted
	flushReason map[string]int
}

// outcome is what one pass over a workload produced.
type outcome struct {
	e2e       map[string]float64 // every end-to-end metric except peak_rss_mb
	cost      float64            // the lower-is-better figure trace_overhead_ratio compares
	attempted int64
	failed    int64
	checks    []check
	diags     []diag
	counts    layerCounts
	stages    *stageBudget // live_relayed and live_trunked, traced pass only
	notes     []string
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return true
}
