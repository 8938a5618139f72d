// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated substrates, plus the ablation
// studies listed in DESIGN.md. Each experiment returns the same rows or
// series the paper reports together with the paper's reference values.
// Evaluation lists every one of them with the arguments it is reproduced
// at: the d2dbench CLI prints it as paper-vs-measured comparisons,
// TestEvaluationGolden pins it and BenchmarkEvaluation times it. The city
// kernels are also the workloads of bench/run.sh: city_seq builds
// CityScenario and runs it, city_par runs RunCityParallel.
package experiments

import (
	"fmt"
	"time"

	"d2dhb/internal/core"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/metrics"
)

// DefaultSeed is used by the CLI and benchmarks; every experiment is
// deterministic given its seed.
const DefaultSeed = 2017 // ICDCS 2017

// stdProfile is the paper's standard 54 B heartbeat (Section V-A).
func stdProfile() hbmsg.AppProfile { return hbmsg.StandardHeartbeat() }

// kPeriods is the horizon of k relay periods of profile plus a grace that
// covers the final flush's RRC release but no further heartbeat (UE offsets
// start at 20 s).
func kPeriods(profile hbmsg.AppProfile, k int) time.Duration {
	return time.Duration(k)*profile.Period + 10*time.Second
}

// pair is the paper's measurement (Section V): a relay with its UEs
// (core.PairScenario) beside the original system, one device sending its
// own heartbeats over cellular. opts carries the seed, the horizon and
// whichever override the experiment sets.
type pair struct {
	opts     core.Options
	profile  hbmsg.AppProfile
	ues      int
	distance float64
	capacity int
}

// stdPair is the pair of ues UEs of the standard heartbeat 1 m from a
// relay of the given capacity.
func stdPair(opts core.Options, ues, capacity int) pair {
	return pair{opts: opts, profile: stdProfile(), ues: ues, distance: 1, capacity: capacity}
}

// check rejects a horizon shorter than one heartbeat period, in which
// the pair would forward nothing.
func (p pair) check() error {
	if p.opts.Duration < p.profile.Period {
		return fmt.Errorf("experiments: horizon %v is shorter than one period (%v)", p.opts.Duration, p.profile.Period)
	}
	return nil
}

// run runs the relay and its UEs.
func (p pair) run() (*core.Report, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	sim, err := core.PairScenario(p.opts, p.profile, p.ues, p.distance, p.capacity)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// original runs the pair's original system: one device, named "orig",
// whose first heartbeat goes out at 20 s like the first UE's, under the
// same options with D2D off.
func (p pair) original() (*core.Report, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	opts := p.opts
	opts.DisableD2D = true
	sim, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	if _, err := sim.AddUE(core.UESpec{ID: "orig", Profile: p.profile, StartOffset: 20 * time.Second}); err != nil {
		return nil, err
	}
	return sim.Run()
}

// measurement is one pair run beside its original system.
type measurement struct {
	pair, orig *core.Report
	relay      *core.DeviceReport
	// Charges (µAh): every UE of the pair together, the relay, and the
	// original device.
	ueE, relayE, origE float64
}

// measure runs the pair and compares it with orig, the original system's
// report at the same profile and horizon; a nil orig runs it.
func (p pair) measure(orig *core.Report) (measurement, error) {
	rep, err := p.run()
	if err != nil {
		return measurement{}, err
	}
	if orig == nil {
		if orig, err = p.original(); err != nil {
			return measurement{}, err
		}
	}
	relay, err := deviceReport(rep, "relay")
	if err != nil {
		return measurement{}, err
	}
	od, err := deviceReport(orig, "orig")
	if err != nil {
		return measurement{}, err
	}
	m := measurement{pair: rep, orig: orig, relay: relay,
		relayE: float64(relay.Total), origE: float64(od.Total)}
	for _, d := range rep.Devices {
		if d.UE != nil {
			m.ueE += float64(d.Total)
		}
	}
	return m, nil
}

// crowd is core.CrowdScenario's crowd, run with D2D and as the original
// system.
type crowd struct {
	opts        core.Options
	profile     hbmsg.AppProfile
	relays, ues int
	side        float64
	capacity    int
}

// run runs the crowd under opts; original runs it with D2D off.
func (c crowd) run() (*core.Report, error) {
	sim, err := core.CrowdScenario(c.opts, c.profile, c.relays, c.ues, c.side, c.capacity)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

func (c crowd) original() (*core.Report, error) {
	c.opts.DisableD2D = true
	return c.run()
}

// deviceReport returns one device's share of a report.
func deviceReport(rep *core.Report, id hbmsg.DeviceID) (*core.DeviceReport, error) {
	d, ok := rep.Device(id)
	if !ok {
		return nil, fmt.Errorf("experiments: device %s missing from report", id)
	}
	return d, nil
}

// figure builds a figure from its series, in order.
func figure(title, xlabel string, x []float64, series []metrics.Series) (*metrics.Figure, error) {
	f := metrics.NewFigure(title, xlabel, x)
	for _, s := range series {
		if err := f.Add(s.Name, s.Y); err != nil {
			return nil, err
		}
	}
	return f, nil
}
