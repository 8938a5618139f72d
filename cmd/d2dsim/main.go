// Command d2dsim runs one simulation scenario of the D2D heartbeat
// relaying framework and prints the resulting report: per-device energy,
// signaling counters and delivery statistics, plus the comparison against
// the original (no-D2D) system.
//
// Usage:
//
//	d2dsim [-scenario pair|crowd] [-relays N] [-ues N] [-periods N]
//	       [-distance M] [-side M] [-capacity M] [-policy nagle|immediate|fixed-delay|period-aligned]
//	       [-app standard|wechat|whatsapp|qq|facebook] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"d2dhb/internal/cellular"
	"d2dhb/internal/core"
	"d2dhb/internal/d2d"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/metrics"
	scenariopkg "d2dhb/internal/scenario"
	"d2dhb/internal/sched"
	"d2dhb/internal/trace"
)

func main() {
	var (
		scenario = flag.String("scenario", "pair", "pair or crowd")
		relays   = flag.Int("relays", 1, "number of relays (crowd scenario)")
		ues      = flag.Int("ues", 1, "number of UEs")
		periods  = flag.Int("periods", 8, "heartbeat periods to simulate")
		distance = flag.Float64("distance", 1, "UE-relay distance in meters (pair scenario)")
		side     = flag.Float64("side", 100, "area side in meters (crowd scenario)")
		capacity = flag.Int("capacity", 8, "relay collection capacity M")
		policy   = flag.String("policy", "nagle", "scheduling policy")
		app      = flag.String("app", "standard", "app profile")
		seed     = flag.Int64("seed", 1, "simulation seed")
		channel  = flag.Bool("channel", false, "track control-channel load (signaling storm)")
		config   = flag.String("config", "", "JSON scenario file (overrides the other topology flags)")
		traceOut = flag.String("trace", "", "write a JSONL event trace to this file")
	)
	flag.Parse()
	tracer, closeTrace, err := openTrace(*traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "d2dsim:", err)
		os.Exit(1)
	}
	if *config != "" {
		err = runConfig(*config, tracer)
	} else {
		err = run(*scenario, *relays, *ues, *periods, *distance, *side, *capacity, *policy, *app, *seed, *channel, tracer)
	}
	if cerr := closeTrace(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "d2dsim:", err)
		os.Exit(1)
	}
}

// runConfig executes a declarative JSON scenario and compares it against
// the same topology with D2D disabled.
// openTrace opens the optional JSONL trace sink.
func openTrace(path string) (trace.Tracer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return trace.NewJSONL(f), f.Close, nil
}

func runConfig(path string, tracer trace.Tracer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }() // read-only: nothing buffered to lose
	cfg, err := scenariopkg.Load(f)
	if err != nil {
		return err
	}
	sim, err := cfg.BuildTraced(tracer)
	if err != nil {
		return err
	}
	rep, err := sim.Run()
	if err != nil {
		return err
	}
	base, err := cfg.BuildWith(true) // baseline is never traced
	if err != nil {
		return err
	}
	baseRep, err := base.Run()
	if err != nil {
		return err
	}
	profile, err := hbmsg.ProfileByName("standard")
	if err != nil {
		return err
	}
	printReport(rep, baseRep, profile)
	if cfg.Channel {
		printChannel(rep, baseRep, cellular.DefaultChannelConfig())
	}
	return nil
}

func run(scenario string, relays, ues, periods int, distance, side float64, capacity int, policyName, appName string, seed int64, channel bool, tracer trace.Tracer) error {
	profile, err := hbmsg.ProfileByName(appName)
	if err != nil {
		return err
	}
	kind, err := sched.ParseKind(policyName)
	if err != nil {
		return err
	}
	opts := core.Options{
		Seed:     seed,
		Duration: time.Duration(periods)*profile.Period + 10*time.Second,
		Policy:   kind,
	}
	chanCfg := cellular.DefaultChannelConfig()
	if channel {
		opts.Channel = &chanCfg
	}
	opts.Tracer = tracer

	var sim *core.Simulation
	switch scenario {
	case "pair":
		sim, err = core.PairScenario(opts, profile, ues, distance, capacity)
	case "crowd":
		sim, err = core.CrowdScenario(opts, profile, relays, ues, side, capacity)
	default:
		return fmt.Errorf("unknown scenario %q", scenario)
	}
	if err != nil {
		return err
	}
	rep, err := sim.Run()
	if err != nil {
		return err
	}

	// Baseline: the identical topology with D2D disabled. The event trace
	// covers only the scheme run; mixing both streams would corrupt the
	// per-heartbeat delay matching.
	opts.DisableD2D = true
	opts.Tracer = nil
	var base *core.Simulation
	switch scenario {
	case "pair":
		base, err = core.PairScenario(opts, profile, ues, distance, capacity)
	case "crowd":
		base, err = core.CrowdScenario(opts, profile, relays, ues, side, capacity)
	}
	if err != nil {
		return err
	}
	baseRep, err := base.Run()
	if err != nil {
		return err
	}

	printReport(rep, baseRep, profile)
	if channel {
		printChannel(rep, baseRep, chanCfg)
	}
	return nil
}

func printChannel(rep, base *core.Report, cfg cellular.ChannelConfig) {
	t := metrics.NewTable("Control-channel load (signaling storm)",
		"metric", "scheme", "original")
	t.AddRow("peak window load",
		fmt.Sprintf("%d", rep.Channel.PeakWindowLoad),
		fmt.Sprintf("%d", base.Channel.PeakWindowLoad))
	t.AddRow("peak utilization",
		metrics.Pct(rep.Channel.PeakUtilization(cfg)),
		metrics.Pct(base.Channel.PeakUtilization(cfg)))
	t.AddRow("overloaded windows",
		fmt.Sprintf("%d", rep.Channel.OverloadedWindows),
		fmt.Sprintf("%d", base.Channel.OverloadedWindows))
	t.AddRow("dropped messages",
		fmt.Sprintf("%d", rep.Channel.DroppedMessages),
		fmt.Sprintf("%d", base.Channel.DroppedMessages))
	fmt.Println(t)
}

func printReport(rep, base *core.Report, profile hbmsg.AppProfile) {
	t := metrics.NewTable(
		fmt.Sprintf("Per-device results (%s, %v horizon)", profile.Name, rep.Duration),
		"device", "role", "energy (µAh)", "L3 msgs", "tx", "avail", "forwarded/collected")
	for _, d := range rep.Devices {
		extra := ""
		switch {
		case d.Relay != nil:
			extra = fmt.Sprintf("collected %d, credits %d", d.Relay.Collected, d.Relay.Credits)
		case d.UE != nil:
			extra = fmt.Sprintf("d2d %d, direct %d, fallback %d",
				d.UE.SentViaD2D, d.UE.DirectCellular, d.UE.FallbackResends)
		}
		t.AddRow(string(d.ID), d.Role.String(), metrics.F(float64(d.Total)),
			fmt.Sprintf("%d", d.RRC.L3Messages), fmt.Sprintf("%d", d.RRC.Transmissions),
			metrics.Pct(d.Availability), extra)
	}
	fmt.Println(t)

	summary := metrics.NewTable("Scheme vs original system",
		"metric", "scheme", "original", "saving")
	l3Saving := 1 - float64(rep.TotalL3Messages)/float64(base.TotalL3Messages)
	eSaving := 1 - float64(rep.TotalEnergy())/float64(base.TotalEnergy())
	summary.AddRow("layer-3 messages",
		fmt.Sprintf("%d", rep.TotalL3Messages), fmt.Sprintf("%d", base.TotalL3Messages),
		metrics.Pct(l3Saving))
	summary.AddRow("total energy (µAh)",
		metrics.F(float64(rep.TotalEnergy())), metrics.F(float64(base.TotalEnergy())),
		metrics.Pct(eSaving))
	ueScheme := rep.EnergyByRole(d2d.RoleUE)
	ueBase := base.EnergyByRole(d2d.RoleUE)
	if ueBase > 0 {
		summary.AddRow("UE energy (µAh)",
			metrics.F(float64(ueScheme)), metrics.F(float64(ueBase)),
			metrics.Pct(1-float64(ueScheme)/float64(ueBase)))
	}
	summary.AddRow("deliveries (late)",
		fmt.Sprintf("%d (%d)", rep.Deliveries, rep.LateDeliveries),
		fmt.Sprintf("%d (%d)", base.Deliveries, base.LateDeliveries), "")
	fmt.Println(summary)
}
