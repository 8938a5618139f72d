// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated substrates, plus the ablation
// studies listed in DESIGN.md. Each experiment returns the same rows or
// series the paper reports together with the paper's reference values, so
// callers (the d2dbench CLI and the root package's `go test -bench`
// harness) can print paper-vs-measured comparisons. The city kernels
// (RunCity, RunCityParallel) are also the workloads of bench/run.sh.
package experiments

import (
	"fmt"
	"time"

	"d2dhb/internal/core"
	"d2dhb/internal/energy"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/matching"
	"d2dhb/internal/sched"
)

// DefaultSeed is used by the CLI and benchmarks; every experiment is
// deterministic given its seed.
const DefaultSeed = 2017 // ICDCS 2017

// stdProfile is the paper's standard 54 B heartbeat (Section V-A).
func stdProfile() hbmsg.AppProfile { return hbmsg.StandardHeartbeat() }

// runPair runs the canonical measurement scenario — one relay plus numUEs
// UEs at the given distance — for k relay periods and returns the report.
func runPair(seed int64, profile hbmsg.AppProfile, k, numUEs int, distance float64, capacity int, policy sched.Kind) (*core.Report, error) {
	if k <= 0 {
		return nil, fmt.Errorf("experiments: k must be positive, got %d", k)
	}
	opts := core.Options{
		Seed: seed,
		// k periods plus a grace that covers the final flush's RRC release
		// but no further heartbeat (UE offsets start at 20 s).
		Duration: time.Duration(k)*profile.Period + 10*time.Second,
		Policy:   policy,
	}
	sim, err := core.PairScenario(opts, profile, numUEs, distance, capacity)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// runPairMatched is runPair with an explicit matching prejudgment
// distance.
func runPairMatched(seed int64, profile hbmsg.AppProfile, k, numUEs int, distance float64, capacity int, maxMatchDist float64) (*core.Report, error) {
	if k <= 0 {
		return nil, fmt.Errorf("experiments: k must be positive, got %d", k)
	}
	match := matching.DefaultConfig()
	match.MaxDistance = maxMatchDist
	opts := core.Options{
		Seed:     seed,
		Duration: time.Duration(k)*profile.Period + 10*time.Second,
		Match:    &match,
	}
	sim, err := core.PairScenario(opts, profile, numUEs, distance, capacity)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// runOriginalDevice returns the report of a single device sending its own
// heartbeats directly over cellular for k periods — the paper's "original
// system" reference curve.
func runOriginalDevice(seed int64, profile hbmsg.AppProfile, k int) (*core.Report, error) {
	if k <= 0 {
		return nil, fmt.Errorf("experiments: k must be positive, got %d", k)
	}
	opts := core.Options{
		Seed:       seed,
		Duration:   time.Duration(k)*profile.Period + 10*time.Second,
		DisableD2D: true,
	}
	sim, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	if _, err := sim.AddUE(core.UESpec{
		ID:          "orig",
		Profile:     profile,
		StartOffset: 20 * time.Second,
	}); err != nil {
		return nil, err
	}
	return sim.Run()
}

// deviceEnergy returns the total charge of one device in a report.
func deviceEnergy(rep *core.Report, id hbmsg.DeviceID) (energy.MicroAmpHours, error) {
	d, ok := rep.Device(id)
	if !ok {
		return 0, fmt.Errorf("experiments: device %s missing from report", id)
	}
	return d.Total, nil
}

// sumUEEnergy returns the total charge across all UE devices in a pair
// report.
func sumUEEnergy(rep *core.Report) energy.MicroAmpHours {
	var sum energy.MicroAmpHours
	for _, d := range rep.Devices {
		if d.UE != nil {
			sum += d.Total
		}
	}
	return sum
}
