// Command d2dload drives the real heartbeat stack with a massive virtual
// fleet over loopback TCP and measures where it saturates: open-loop load
// generation with a configurable arrival shape, per-path heartbeat→ack
// latency quantiles, throughput and error/timeout accounting.
//
// Usage:
//
//	d2dload [-ues 1000] [-relays 2] [-relay-ratio 0.25] [-apps wechat:2,qq:1]
//	        [-duration 10s] [-speedup 100] [-arrival steady|ramp|spike]
//	        [-window 0] [-report 5s] [-timeout 0] [-capacity 0]
//	        [-server host:port] [-cluster url] [-trunks 0] [-trunk-pace 0]
//	        [-json path] [-fault spec]
//	        [-telemetry host:port] [-metrics host:port] [-record trace.d2dr]
//	d2dload -replay trace.d2dr [-server host:port | -cluster url] [-speedup 100] [-timeout 0]
//	        [-fault spec] [-json path]
//
// -record captures the run's per-heartbeat arrival timeline (sends, acks,
// timeouts, fault windows) into a compact trace file (internal/rec).
// -replay drives a recorded trace back through BOTH the deterministic
// simulation (internal/experiments.ReplaySim, on the simulator's own modems
// and relays) and the live TCP stack (internal/loadgen.ReplayLive) and
// prints the sim-vs-real parity report: delivery ratio, ack-latency
// quantiles and signaling counts side by side, plus the trace and sim
// digests. A trunk's sends go out, in both replays, as the emissions their
// recorded gaps make (rec.Timeline.Steps), and each column is the
// RecordedMetrics of a recording. -timeout is the replayed clients' ack
// timeout (0 selects 2 s there).
//
// -telemetry serves the run's own live metrics (fleet counters, latency
// histograms and — for in-process runs — server/relay instruments) plus
// pprof. -metrics names an external server's telemetry listener; each
// report scrapes its /metrics.json so the capacity report captures both
// ends of the measurement.
//
// App profile periods are divided by -speedup so commercial multi-minute
// heartbeat intervals compress into short runs. The final report prints as
// a human table and as JSON (to stdout, or to -json path).
//
// -fault injects scripted network faults into every listen and dial the
// run makes (see internal/faultnet.ParseSpec): a fault hits whichever end
// writes, so the in-process server's acks and the relays' feedback suffer
// it as well as the UEs' and relays' sends, and a blackhole window closes
// the connections the server and relays accept. For example:
//
//	-fault "seed=42,latency=5ms,jitter=2ms,corrupt=0.01,partition=3s+1s"
//	-fault "seed=7,chaos=4,horizon=10s"
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"d2dhb/internal/experiments"
	"d2dhb/internal/faultnet"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/loadgen"
	"d2dhb/internal/rec"
	"d2dhb/internal/telemetry"
)

func main() {
	var (
		ues        = flag.Int("ues", 1000, "fleet size (virtual UEs)")
		relays     = flag.Int("relays", 2, "relay agent count (0 disables relaying)")
		relayRatio = flag.Float64("relay-ratio", 0.25, "fraction of the fleet forwarding via relays")
		apps       = flag.String("apps", "wechat,whatsapp,qq,facebook", "app profile mix, name[:weight] comma-separated")
		duration   = flag.Duration("duration", 10*time.Second, "load-offering duration (excludes drain)")
		speedup    = flag.Float64("speedup", 100, "divide app heartbeat periods by this factor")
		arrival    = flag.String("arrival", "steady", "fleet arrival shape: steady, ramp or spike")
		window     = flag.Duration("window", 0, "arrival window (0 = auto per shape)")
		report     = flag.Duration("report", 5*time.Second, "interim report interval (0 disables)")
		timeout    = flag.Duration("timeout", 0, "ack timeout before a heartbeat counts lost (0 = auto)")
		capacity   = flag.Int("capacity", 0, "relay per-period collection capacity M (0 = auto)")
		server     = flag.String("server", "", "external presence server address (default: in-process)")
		clusterA   = flag.String("cluster", "", "presence cluster router URL or host:port (see d2dcluster; excludes -server)")
		trunks     = flag.Int("trunks", 0, "multiplex the fleet over this many relay-trunk connections (excludes -relays)")
		trunkPace  = flag.Int("trunk-pace", 0, "spread each trunk period over this many emission slots (0/1 = burst; slot s sends the s-th block of users by index)")
		jsonPath   = flag.String("json", "", "write the final JSON report to this file instead of stdout")
		fault      = flag.String("fault", "", "fault-injection spec for every listen and dial of the run, e.g. seed=42,latency=5ms,corrupt=0.01,partition=3s+1s")
		telemAddr  = flag.String("telemetry", "", "serve the run's own /metrics, /metrics.json and pprof on this address")
		metrics    = flag.String("metrics", "", "external server's telemetry address to scrape /metrics.json from")
		record     = flag.String("record", "", "record the run's heartbeat timeline into this trace file")
		replay     = flag.String("replay", "", "replay a recorded trace through sim + live stack and print the parity report")
	)
	flag.Parse()
	if *replay != "" {
		if err := runReplay(*replay, *server, *clusterA, *speedup, *timeout, *fault, *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "d2dload:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*ues, *relays, *relayRatio, *apps, *duration, *speedup,
		*arrival, *window, *report, *timeout, *capacity, *server, *clusterA, *trunks, *trunkPace,
		*jsonPath, *fault, *telemAddr, *metrics, *record); err != nil {
		fmt.Fprintln(os.Stderr, "d2dload:", err)
		os.Exit(1)
	}
}

// runReplay is the -replay mode: one trace file in, one sim-vs-real parity
// report out. The sim pass is fully deterministic (replaying the same file
// twice prints the same sim digest); the live pass re-executes the same
// timeline over real TCP — against one server, or against a cluster router
// URL with per-shard routing resolved through the epoch config.
func runReplay(path, server, clusterAddr string, speedup float64, timeout time.Duration, fault, jsonPath string) error {
	tl, err := rec.ReadFile(path)
	if err != nil {
		return err
	}
	faults, err := faultnet.ParseSpec(fault)
	if err != nil {
		return err
	}
	fmt.Printf("d2dload: replaying %s — %d clients, %d sends, digest %s\n",
		path, len(tl.Clients), tl.Sends(), tl.Digest())
	if clusterAddr != "" {
		fmt.Printf("d2dload: replay cluster target %s\n", clusterAddr)
	}
	sim, err := experiments.ReplaySim(tl)
	if err != nil {
		return err
	}
	live, err := loadgen.ReplayLive(tl, loadgen.ReplayOptions{
		ServerAddr: server, ClusterAddr: clusterAddr, Speedup: speedup, AckTimeout: timeout, Net: faults.On(faultnet.OS{}),
	})
	if err != nil {
		return err
	}
	rep := rec.NewParityReport(tl, tl.RecordedMetrics(), sim, live)
	fmt.Println(rep.Table())
	fmt.Printf("trace digest %s, sim digest %s, delivery gap %.4f\n",
		rep.TraceDigest, rep.SimDigest, rep.DeliveryGap())
	js, err := rep.JSON()
	if err != nil {
		return err
	}
	if jsonPath != "" {
		if err := os.WriteFile(jsonPath, append(js, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("parity report written to %s\n", jsonPath)
	} else {
		fmt.Printf("%s\n", js)
	}
	return nil
}

func run(ues, relays int, relayRatio float64, apps string, duration time.Duration,
	speedup float64, arrival string, window, report, timeout time.Duration,
	capacity int, server, clusterAddr string, trunks, trunkPace int,
	jsonPath, fault, telemAddr, metricsAddr, recordPath string) error {
	raiseFDLimit()
	shape, err := loadgen.ParseArrivalShape(arrival)
	if err != nil {
		return err
	}
	profiles, err := parseAppMix(apps)
	if err != nil {
		return err
	}
	faults, err := faultnet.ParseSpec(fault)
	if err != nil {
		return err
	}
	cfg := loadgen.Config{
		UEs:            ues,
		Relays:         relays,
		RelayRatio:     relayRatio,
		Profiles:       profiles,
		Speedup:        speedup,
		Duration:       duration,
		Arrival:        loadgen.Schedule{Shape: shape, Window: window},
		AckTimeout:     timeout,
		RelayCapacity:  capacity,
		ReportEvery:    report,
		ServerAddr:     server,
		ClusterAddr:    clusterAddr,
		Trunks:         trunks,
		TrunkPaceSlots: trunkPace,
		Net:            faults.On(faultnet.OS{}),
		MetricsAddr:    metricsAddr,
	}
	var recorder *rec.Recorder
	if recordPath != "" {
		recorder = rec.NewRecorder()
		cfg.Recorder = recorder
	}
	if telemAddr != "" {
		reg := telemetry.NewRegistry()
		cfg.Telemetry = reg
		ts, err := telemetry.Serve(telemAddr, reg)
		if err != nil {
			return err
		}
		defer ts.Close()
		fmt.Printf("telemetry on http://%s/metrics\n", ts.Addr())
	}
	if report > 0 {
		cfg.OnReport = func(rep loadgen.Report) {
			fmt.Printf("[%5.1fs] %.1f hb/s acked, sent=%d acked=%d timeouts=%d errors=%d, p99=%.1fms\n",
				rep.ElapsedSec, rep.ThroughputHBps, rep.Sent, rep.Acked,
				rep.Timeouts, rep.Errors, rep.Overall.P99Ms)
		}
	}
	r, err := loadgen.New(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("d2dload: %d UEs (%d relays, ratio %.2f), %s arrival, %v at %gx speedup\n",
		ues, relays, relayRatio, shape, duration, speedup)
	if trunks > 0 {
		if trunkPace > 1 {
			fmt.Printf("d2dload: trunked fleet, %d trunks, paced over %d slots\n", trunks, trunkPace)
		} else {
			fmt.Printf("d2dload: trunked fleet, %d trunks\n", trunks)
		}
	}
	if clusterAddr != "" {
		fmt.Printf("d2dload: cluster target %s\n", clusterAddr)
	}
	rep, err := r.Run()
	if err != nil {
		return err
	}
	if recorder != nil {
		tl, err := recorder.Timeline()
		if err != nil {
			return fmt.Errorf("record: %w", err)
		}
		if err := tl.WriteFile(recordPath); err != nil {
			return fmt.Errorf("record: %w", err)
		}
		fmt.Printf("trace recorded to %s: %d clients, %d sends, digest %s\n",
			recordPath, len(tl.Clients), tl.Sends(), tl.Digest())
	}
	fmt.Println()
	fmt.Print(rep.String())
	if faults != nil {
		fs := faults.Stats()
		fmt.Printf("\nfaults injected: delayed=%d throttled=%d corrupted=%d resets=%d dropped-sends=%d blackholed=%d refused-dials=%d\n",
			fs.Delayed, fs.Throttled, fs.Corrupted, fs.Resets, fs.DroppedSends, fs.Blackholed, fs.RefusedDials)
	}
	js, err := rep.JSON()
	if err != nil {
		return err
	}
	if jsonPath != "" {
		if err := os.WriteFile(jsonPath, append(js, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nJSON report written to %s\n", jsonPath)
	} else {
		fmt.Printf("\n%s\n", js)
	}
	return runOutcome(rep)
}

// runOutcome decides the exit status from the final report: a run where
// not one heartbeat left a UE while dial/write errors piled up measured
// nothing — the report is still printed for diagnosis, but the process
// must not exit 0 as if a capacity measurement happened.
func runOutcome(rep loadgen.Report) error {
	if rep.Sent == 0 && rep.Errors > 0 {
		return fmt.Errorf("run aborted: no heartbeat was ever sent (%d dial errors, %d write errors)",
			rep.DialErrors, rep.WriteErrors)
	}
	return nil
}

// parseAppMix expands "wechat:2,qq:1" into a weighted profile list (the
// fleet assigns profiles round-robin, so repetition is weighting).
func parseAppMix(s string) ([]hbmsg.AppProfile, error) {
	var out []hbmsg.AppProfile
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weight := part, 1
		if i := strings.IndexByte(part, ':'); i >= 0 {
			name = part[:i]
			w, err := strconv.Atoi(part[i+1:])
			if err != nil || w < 1 {
				return nil, fmt.Errorf("bad app weight in %q", part)
			}
			weight = w
		}
		p, err := hbmsg.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		for i := 0; i < weight; i++ {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty app mix %q", s)
	}
	return out, nil
}
