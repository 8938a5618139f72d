package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"d2dhb/internal/hbmsg"
	"d2dhb/internal/loadgen"
	"d2dhb/internal/rec"
	"d2dhb/internal/relaynet"
	"d2dhb/internal/trace"
)

// Live sizing: each workload offers 6-75 k heartbeats/s on loopback, well
// under what 2 cores saturate at, so cost reads as CPU per heartbeat.
const (
	directUEs     = 2_000
	directSpeedup = 970 // 240-300 s app periods → 0.25-0.31 s: ~7 k hb/s

	// 3 000 UEs at ~1 s periods, not ISSUE 11's 6 000 at ~2 s: the same
	// ~3 k hb/s, but at 6 000 CPU per heartbeat came out in two modes (72
	// and 89 us) from one run to the next, at 2 000-4 000 within +-3 %.
	relayedUEs     = 3_000
	relayedRelays  = 8
	relayedShards  = 1
	relayedSpeedup = 270 // 240-300 s app periods → 0.9-1.1 s: ~3 k hb/s
	// relayedRatio leaves a tenth of the fleet direct. With every UE relayed
	// signalling_ratio is ~0.003 (one batch per 375 heartbeats) and the
	// 30-70 fallback re-sends of a run move it 2x; the direct tenth sets its
	// base to ~0.10, where they move it < 3 % while a relay flushing per
	// heartbeat or per M = 16 would still move it by 60 % or more.
	relayedRatio = 0.9

	trunkedUEs     = 200_000
	trunkedTrunks  = 2
	trunkedSlots   = 32
	trunkedShards  = 3
	trunkedSpeedup = 100 // every app at 270 s → 2.7 s: ~74 k hb/s
	trunkedPeriod  = 270 * time.Second
)

// fullFleet is each live workload's fleet size in a benchmark run.
var fullFleet = map[string]int{"live_direct": directUEs, "live_relayed": relayedUEs, "live_trunked": trunkedUEs}

// liveSpec is one live workload's generated input.
type liveSpec struct {
	cfg    loadgen.Config
	shards int // bench-owned cluster size; 0 lets loadgen spawn its one server
}

// seededProfiles derives the app mix from the seed: Table I's four apps
// with each heartbeat's pad grown by a seeded 0-25 % and the round-robin
// order shuffled. A non-zero period overrides every app's own, which keeps
// the offered rate independent of the seed where units share a schedule.
func seededProfiles(seed int64, period time.Duration) []hbmsg.AppProfile {
	rng := rand.New(rand.NewSource(seed))
	ps := hbmsg.Apps()
	for i := range ps {
		ps[i].Size += rng.Intn(ps[i].Size/4 + 1)
		if period > 0 {
			ps[i].Period = period
		}
	}
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

// liveConfig generates the named workload's loadgen input for a fleet of
// ues offered for dur. The full-size fleets are the constants above; the
// unit tests pass a small one through the same builder.
func liveConfig(name string, seed int64, ues int, dur time.Duration) (liveSpec, error) {
	switch name {
	case "live_direct":
		return liveSpec{cfg: loadgen.Config{
			UEs: ues, Profiles: seededProfiles(seed, 0), Speedup: directSpeedup, Duration: dur,
		}}, nil
	case "live_relayed":
		// One server, but reached through a one-shard cluster: only in
		// cluster mode do loadgen's relayed UEs have the paper's fallback
		// (re-send direct when no feedback arrives). Without it the few
		// heartbeats a relay rejects at each period boundary are lost (see
		// README, "relay period boundary").
		return liveSpec{shards: relayedShards, cfg: loadgen.Config{
			UEs: ues, Relays: relayedRelays, RelayRatio: relayedRatio,
			Profiles: seededProfiles(seed, 0), Speedup: relayedSpeedup, Duration: dur,
		}}, nil
	case "live_trunked":
		return liveSpec{shards: trunkedShards, cfg: loadgen.Config{
			UEs: ues, Trunks: trunkedTrunks, TrunkPaceSlots: trunkedSlots,
			Profiles: seededProfiles(seed, trunkedPeriod), Speedup: trunkedSpeedup, Duration: dur,
		}}, nil
	}
	return liveSpec{}, fmt.Errorf("unknown live workload %q", name)
}

// liveTrace is the traced pass's instrumentation: the benchmark's own
// tracer on servers and relays, and its recorder on the fleet.
type liveTrace struct {
	tracer   *stampTracer
	recorder *rec.Recorder
}

// liveRun is one loadgen run as seen from outside.
type liveRun struct {
	rep    loadgen.Report
	srv    relaynet.ServerStats // summed over every server
	setup  time.Duration        // cluster start + loadgen's own set-up, up to its start instant
	active time.Duration        // first interim report → Run returned (offer, drain, teardown)
	cpu    time.Duration        // process CPU over active
	acked  uint64               // heartbeats acknowledged during active
}

// runLiveOnce starts what the spec needs, runs the fleet and tears
// everything down. loadgen.Runner.Run does its set-up, offer and drain in
// one call, so the first interim report (an eighth into the offered
// duration) is the benchmark's handle on it: callback time minus the
// report's own elapsed time is loadgen's start instant, and CPU and acks are
// counted from the callback on, which keeps set-up out of cpu_us_per_hb.
func runLiveOnce(spec liveSpec, lt *liveTrace, spans *spanLog, parent int) (liveRun, error) {
	cfg := spec.cfg
	var run liveRun
	t0 := time.Now()
	var cl *benchCluster
	if spec.shards > 0 {
		sp := spans.begin("setup:startCluster", parent)
		var tr trace.Tracer
		if lt != nil {
			tr = lt.tracer
		}
		var err error
		cl, err = startCluster(spec.shards, tr)
		spans.end(sp)
		if err != nil {
			return run, err
		}
		defer cl.close()
		cfg.ClusterAddr = cl.url
	}
	clusterUp := time.Since(t0)
	if lt != nil {
		cfg.Tracer, cfg.Recorder = lt.tracer, lt.recorder
	}
	var once sync.Once
	var started, first time.Time
	var firstCPU time.Duration
	var firstAcked uint64
	cfg.ReportEvery = cfg.Duration / 8
	cfg.OnReport = func(rep loadgen.Report) {
		once.Do(func() {
			first, firstCPU, firstAcked = time.Now(), cpuTime(), rep.Acked
			started = first.Add(-time.Duration(rep.ElapsedSec * float64(time.Second)))
		})
	}
	r, err := loadgen.New(cfg)
	if err != nil {
		return run, err
	}
	// Start every run from a collected heap: what earlier set-up samples
	// left behind otherwise decides how often the collector runs during
	// this one, and CPU per heartbeat comes out in two modes 25 % apart.
	runtime.GC()
	sp := spans.begin("setup+offer+drain:Runner.Run", parent)
	t1 := time.Now()
	run.rep, err = r.Run()
	end, endCPU := time.Now(), cpuTime()
	spans.end(sp)
	if err != nil {
		return run, err
	}
	if started.IsZero() {
		return run, fmt.Errorf("loadgen sent no interim report in %v; cannot place its start instant", cfg.Duration)
	}
	run.setup = clusterUp + started.Sub(t1)
	run.active, run.cpu, run.acked = end.Sub(first), endCPU-firstCPU, run.rep.Acked-firstAcked
	if cl != nil {
		run.srv = cl.stats()
	} else if run.rep.Server != nil {
		run.srv = *run.rep.Server
	}
	return run, nil
}

// scheduledSends is how many heartbeats the open-loop schedule calls for
// within the offered duration: unit i activates at Window·i/n and then
// sends once a period. For a paced trunk the per-user share of sub-ticks is
// taken as uniform, which is exact to within one slot.
func scheduledSends(cfg loadgen.Config) float64 {
	scale := func(d time.Duration) time.Duration {
		return max(time.Duration(float64(d)/cfg.Speedup), 10*time.Millisecond)
	}
	lo, hi := time.Duration(0), time.Duration(0)
	for i, p := range cfg.Profiles {
		s := scale(p.Period)
		if i == 0 || s < lo {
			lo = s
		}
		hi = max(hi, s)
	}
	window := cfg.Arrival.Window
	if window == 0 {
		window = (lo + hi) / 2
	}
	ticks := func(offset, every time.Duration) float64 {
		if offset >= cfg.Duration {
			return 0
		}
		return float64((cfg.Duration-offset)/every) + 1
	}
	total := 0.0
	if cfg.Trunks == 0 {
		for i := 0; i < cfg.UEs; i++ {
			p := cfg.Profiles[i%len(cfg.Profiles)]
			total += ticks(window*time.Duration(i)/time.Duration(cfg.UEs), scale(p.Period))
		}
		return total
	}
	for ti := 0; ti < cfg.Trunks; ti++ {
		users := cfg.UEs / cfg.Trunks
		if ti < cfg.UEs%cfg.Trunks {
			users++
		}
		period := scale(cfg.Profiles[ti%len(cfg.Profiles)].Period)
		offset := window * time.Duration(ti) / time.Duration(cfg.Trunks)
		slots := min(cfg.TrunkPaceSlots, users, int(period/time.Millisecond))
		if slots > 1 {
			total += float64(users) * ticks(offset, period/time.Duration(slots)) / float64(slots)
		} else {
			total += float64(users) * ticks(offset, period)
		}
	}
	return total
}

// Set-up is sampled by short runs that exist only to be timed, before the
// measured run adds its own sample: up to setupSamples of them, within
// setupBudget. Their 1 ms ack timeout ends the drain at once; what they
// deliver is ignored.
const (
	setupSamples = 15
	setupBudget  = 1500 * time.Millisecond
)

func runLive(c runCtx, name string) (*outcome, error) {
	root := c.spans.begin("pass", -1)
	defer c.spans.end(root)
	ues := fullFleet[name]

	var setups []float64
	for begun := time.Now(); len(setups) < setupSamples && (len(setups) < 2 || time.Since(begun) < setupBudget); {
		spec, err := liveConfig(name, c.seed, ues, 30*time.Millisecond)
		if err != nil {
			return nil, err
		}
		spec.cfg.AckTimeout = time.Millisecond
		sp := c.spans.begin("setup-sample", root)
		run, err := runLiveOnce(spec, nil, c.spans, sp)
		c.spans.end(sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, run.setup.Seconds())
	}

	spec, err := liveConfig(name, c.seed, ues, time.Duration(c.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	var lt *liveTrace
	if c.traced {
		lt = &liveTrace{tracer: &stampTracer{}, recorder: rec.NewRecorder()}
	}
	sp := c.spans.begin("measured-run", root)
	run, err := runLiveOnce(spec, lt, c.spans, sp)
	c.spans.end(sp)
	if err != nil {
		return nil, err
	}
	setups = append(setups, run.setup.Seconds())

	o := liveOutcome(spec, run)
	o.e2e["setup_s"] = median(setups)
	o.notes = append(o.notes, fmt.Sprintf("set-up samples (s): %.4f", setups))
	if spec.cfg.Relays == 0 && spec.cfg.Trunks == 0 {
		o.check("signalling-direct", o.e2e["signalling_ratio"] == 1,
			"signalling_ratio %v (must be exactly 1 without relays or trunks)", o.e2e["signalling_ratio"])
	}
	if lt != nil {
		sp := c.spans.begin("report:stage-join", root)
		tl, err := lt.recorder.Timeline()
		if err != nil {
			return nil, err
		}
		o.stages = joinStages(stageEvents(tl, lt.tracer))
		c.spans.end(sp)
	}
	return o, nil
}

// liveOutcome turns one measured run into metrics, diagnostics, counts and
// checks.
func liveOutcome(spec liveSpec, run liveRun) *outcome {
	rep, srv := run.rep, run.srv
	delivered := float64(srv.HeartbeatsDirect + srv.HeartbeatsRelayed)
	o := &outcome{e2e: map[string]float64{
		"sim_rate":         spec.cfg.Speedup * spec.cfg.Duration.Seconds() / rep.ElapsedSec,
		"cpu_us_per_hb":    float64(run.cpu.Microseconds()) / float64(run.acked),
		"signalling_ratio": float64(srv.Batches+srv.HeartbeatsDirect) / delivered,
	}}
	o.cost = o.e2e["cpu_us_per_hb"]
	o.attempted, o.failed = int64(rep.Sent), int64(rep.Timeouts+rep.Errors)
	n := int64(rep.Overall.Count)
	o.diags = append(o.diags,
		diag{Name: "ack_p50_ms", Value: rep.Overall.P50Ms, Unit: "ms", N: n},
		diag{Name: "ack_p99_ms", Value: rep.Overall.P99Ms, Unit: "ms", N: n},
		diag{Name: "ack_p999_ms", Value: rep.Overall.P999Ms, Unit: "ms", N: n},
		diag{Name: "loss_ratio", Value: float64(o.failed) / float64(max(o.attempted, 1)), Unit: "ratio", N: o.attempted},
		diag{Name: "generator_lag_ratio", Value: 1 - float64(rep.Sent)/scheduledSends(spec.cfg), Unit: "ratio"},
		diag{Name: "offered_hb_per_s", Value: rep.OfferedHBps, Unit: "1/s"},
	)
	o.counts = layerCounts{
		wallSec: run.active.Seconds(), cpuSec: run.cpu.Seconds(),
		deliveries: delivered, conns: float64(srv.Connections), clients: float64(rep.UEs),
		hbFrames: float64(srv.HeartbeatsDirect), directHBs: float64(srv.HeartbeatsDirect),
		batchedHBs: float64(srv.HeartbeatsRelayed), batches: float64(srv.Batches),
	}
	if rep.Relay != nil {
		o.counts.hbFrames += float64(rep.SentRelayed) // UE → relay frames
		o.counts.collected, o.counts.flushedHBs = float64(rep.Relay.Collected), float64(rep.Relay.Forwarded)
		o.diags = append(o.diags, diag{Name: "relay_rejected", Value: float64(rep.Relay.Rejected), Unit: "count"})
	}
	if spec.shards > 0 {
		o.counts.routedKeys = float64(rep.Sent)
		o.diags = append(o.diags, diag{Name: "fallback_resends", Value: float64(rep.FallbackResends), Unit: "count"})
	}
	o.notes = append(o.notes, fmt.Sprintf(
		"%d UEs, %d relays, %d trunks, %d shards, speed-up %v, offered %v: sent %d acked %d timeouts %d errors %d",
		rep.UEs, rep.Relays, rep.Trunks, spec.shards, rep.Speedup, spec.cfg.Duration,
		rep.Sent, rep.Acked, rep.Timeouts, rep.Errors),
		fmt.Sprintf("measured window (first interim report → Run returned): %.3f s wall, %.3f s CPU, %d acked",
			run.active.Seconds(), run.cpu.Seconds(), run.acked))

	o.check("accounting", rep.Acked+rep.Timeouts == rep.Sent, "acked %d + timeouts %d vs sent %d", rep.Acked, rep.Timeouts, rep.Sent)
	// A heartbeat acknowledged over the fallback path can land after its
	// successor's ack; nothing else may.
	o.check("ack-order", rep.OutOfOrderAcks <= rep.FallbackResends, "%d out-of-order acks, %d fallback resends", rep.OutOfOrderAcks, rep.FallbackResends)
	o.check("protocol", srv.ProtocolErrors == 0, "%d server protocol errors", srv.ProtocolErrors)
	o.check("traffic", rep.Acked > 0 && delivered > 0, "acked %d, delivered %v", rep.Acked, delivered)
	return o
}
