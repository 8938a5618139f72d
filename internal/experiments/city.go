package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"d2dhb/internal/core"
	"d2dhb/internal/d2d"
	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
)

// CityConfig parameterizes the city-scale macro-scenario: a large mixed
// crowd — static phones, pedestrians and vehicle passengers — exchanging
// heartbeats through volunteer relays over a full simulated interval. It is
// the framework's capacity benchmark: every layer (event kernel, discovery
// grid, matching, scheduling, RRC, energy accounting) runs at population
// scale.
type CityConfig struct {
	Seed    int64
	Devices int // total population, relays included
	// RelayFraction is the share of the population volunteering as relays.
	RelayFraction float64
	// Side is the square deployment area edge in meters. The default keeps
	// roughly one device per 100 m² — a dense urban district.
	Side     float64
	Duration time.Duration
	// Capacity is each relay's per-period collection capacity.
	Capacity int
	// DisableD2D runs the same population as the paper's original system
	// (every device on its own cellular connection) for baseline
	// comparisons.
	DisableD2D bool
}

// CityShort is the CI preset: 10k devices for two heartbeat periods.
func CityShort() CityConfig {
	return CityConfig{
		Seed:          DefaultSeed,
		Devices:       10_000,
		RelayFraction: 0.10,
		Side:          1000,
		Duration:      2*stdProfile().Period + 30*time.Second,
		Capacity:      16,
	}
}

func (c CityConfig) validate() error {
	if c.Devices <= 0 {
		return fmt.Errorf("experiments: city devices must be positive, got %d", c.Devices)
	}
	if c.RelayFraction <= 0 || c.RelayFraction >= 1 {
		return fmt.Errorf("experiments: relay fraction must be in (0,1), got %v", c.RelayFraction)
	}
	if c.Side <= 0 {
		return fmt.Errorf("experiments: city side must be positive, got %v", c.Side)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("experiments: city duration must be positive, got %v", c.Duration)
	}
	if c.Capacity <= 0 {
		return fmt.Errorf("experiments: relay capacity must be positive, got %v", c.Capacity)
	}
	return nil
}

// cityPopulation is the device roster of a city scenario, in stable
// population order: relays first, then UEs.
type cityPopulation struct {
	relays []core.RelaySpec
	ues    []core.UESpec
}

// cityCounts splits the configured population into relays and UEs.
func cityCounts(cfg CityConfig) (relays, ues int) {
	relays = max(1, int(float64(cfg.Devices)*cfg.RelayFraction))
	return relays, cfg.Devices - relays
}

// buildCityPopulation draws the city roster from rng into slices (see
// drawCity).
func buildCityPopulation(cfg CityConfig, rng *rand.Rand) (cityPopulation, error) {
	numRelays, numUEs := cityCounts(cfg)
	pop := cityPopulation{
		relays: make([]core.RelaySpec, 0, numRelays),
		ues:    make([]core.UESpec, 0, numUEs),
	}
	err := drawCity(cfg, rng,
		func(s core.RelaySpec) error { pop.relays = append(pop.relays, s); return nil },
		func(s core.UESpec) error { pop.ues = append(pop.ues, s); return nil })
	return pop, err
}

// drawCity draws the city roster from rng and hands each device's spec to
// relay or ue as it is drawn, relays first, so the sequential kernel builds
// its devices without holding a roster. The draw sequence is the contract
// here: the sequential kernel passes its scheduler RNG (preserving the
// pinned city digests; building a device draws nothing from it), the
// parallel kernel passes a fresh rand.New(rand.NewSource(cfg.Seed)) —
// either way the same rng state yields a bit-identical roster.
func drawCity(cfg CityConfig, rng *rand.Rand, relay func(core.RelaySpec) error, ue func(core.UESpec) error) error {
	profile := stdProfile()
	apps := []hbmsg.AppProfile{profile} // every UE's: one array for the city
	area := geo.Square(cfg.Side)
	offset := func() time.Duration {
		return time.Duration(rng.Int63n(int64(profile.Period)))
	}
	walker := func(p geo.Point, minV, maxV float64, pause time.Duration, seed int64) (geo.Mobility, error) {
		return geo.NewRandomWaypoint(area, p, minV, maxV, pause, seed)
	}

	numRelays, numUEs := cityCounts(cfg)
	for i := 0; i < numRelays; i++ {
		p := area.RandomPoint(rng)
		mob := geo.Mobility(geo.Static{P: p})
		if i%5 == 4 {
			w, err := walker(p, 0.5, 1.5, 30*time.Second, cfg.Seed+int64(i))
			if err != nil {
				return err
			}
			mob = w
		}
		err := relay(core.RelaySpec{
			ID:          hbmsg.DeviceID(fmt.Sprintf("relay-%05d", i)),
			Profile:     profile,
			Mobility:    mob,
			Capacity:    cfg.Capacity,
			StartOffset: offset(),
		})
		if err != nil {
			return err
		}
	}
	for i := 0; i < numUEs; i++ {
		p := area.RandomPoint(rng)
		var mob geo.Mobility
		switch {
		case i%20 == 19: // 5 %: vehicle passenger
			w, err := walker(p, 8, 15, 0, cfg.Seed+int64(numRelays+i))
			if err != nil {
				return err
			}
			mob = w
		case i%10 == 9: // 10 %: loiterer circling a spot
			mob = geo.Orbit{Center: p, Radius: 5 + 10*rng.Float64(), Omega: 0.05, Phase: float64(i)}
		case i%4 != 0: // 60 %: static
			mob = geo.Static{P: p}
		default: // 25 %: pedestrian
			w, err := walker(p, 0.5, 2.0, 20*time.Second, cfg.Seed+int64(numRelays+i))
			if err != nil {
				return err
			}
			mob = w
		}
		err := ue(core.UESpec{
			ID:          hbmsg.DeviceID(fmt.Sprintf("ue-%05d", i)),
			Apps:        apps,
			Mobility:    mob,
			StartOffset: offset(),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// CityScenario builds the configured city. The population mixes mobility
// classes deterministically: among UEs, 60 % sit still, 25 % walk
// (0.5–2 m/s with pauses), 10 % loiter on short orbits and 5 % ride in
// vehicles (8–15 m/s); relays are 80 % parked and 20 % walking.
func CityScenario(cfg CityConfig) (*core.Simulation, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sim, err := core.New(core.Options{Seed: cfg.Seed, Duration: cfg.Duration, DisableD2D: cfg.DisableD2D})
	if err != nil {
		return nil, err
	}
	sim.Grow(cfg.Devices)
	err = drawCity(cfg, sim.Scheduler().Rand(),
		func(s core.RelaySpec) error { _, err := sim.AddRelay(s); return err },
		func(s core.UESpec) error { _, err := sim.AddUE(s); return err })
	if err != nil {
		return nil, err
	}
	return sim, nil
}

// CityStats summarizes a city run for the benchmark harness. Wall-clock
// timing is the caller's concern (the simulation layer deals only in virtual
// time); Events lets it derive events/sec and ns/event.
type CityStats struct {
	Devices    int
	Relays     int
	UEs        int
	Events     uint64 // kernel events fired
	SimSeconds float64
	L3Messages int
	Deliveries int
	OnTimeRate float64
}

// RunCity builds and runs the configured city, returning the full report
// plus the kernel-level stats the bench harness records.
func RunCity(cfg CityConfig) (*core.Report, CityStats, error) {
	sim, err := CityScenario(cfg)
	if err != nil {
		return nil, CityStats{}, err
	}
	rep, err := sim.Run()
	if err != nil {
		return nil, CityStats{}, err
	}
	return rep, newCityStats(cfg, rep, sim.Scheduler().Fired()), nil
}

// newCityStats summarizes a finished city run of either kernel. The relay
// headcount is read off the report, i.e. off the roster that actually ran.
func newCityStats(cfg CityConfig, rep *core.Report, events uint64) CityStats {
	relays := 0
	for _, d := range rep.Devices {
		if d.Role == d2d.RoleRelay {
			relays++
		}
	}
	return CityStats{
		Devices:    cfg.Devices,
		Relays:     relays,
		UEs:        cfg.Devices - relays,
		Events:     events,
		SimSeconds: cfg.Duration.Seconds(),
		L3Messages: rep.TotalL3Messages,
		Deliveries: rep.Deliveries,
		OnTimeRate: rep.OnTimeRate(),
	}
}
