package core

import (
	"fmt"
	"time"

	"d2dhb/internal/device"
	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
)

// Star is the paper's measurement topology: one relay at the origin and
// UEs around it at a fixed distance, every UE running the same spec. UE i
// (from 0) is named ue-01, ue-02, …, sits on the circle at phase i and
// starts its heartbeats at UE.StartOffset + i×Spacing, so collections
// arrive in a fixed order.
type Star struct {
	Relay    RelaySpec
	UE       UESpec // the template every UE copies; its ID and Mobility are set per UE
	UEs      int
	Distance float64 // m
	Spacing  time.Duration
}

// Build makes a simulation under opts holding the star's relay, then its
// UEs, and returns it with their handles; the relay's is nil under
// DisableD2D.
func (s Star) Build(opts Options) (*Simulation, *device.Relay, []*device.UE, error) {
	if s.UEs < 0 {
		return nil, nil, nil, fmt.Errorf("core: negative UE count %d", s.UEs)
	}
	sim, err := New(opts)
	if err != nil {
		return nil, nil, nil, err
	}
	relay, err := sim.AddRelay(s.Relay)
	if err != nil {
		return nil, nil, nil, err
	}
	ues := make([]*device.UE, s.UEs)
	for i := range ues {
		spec := s.UE
		spec.ID = hbmsg.DeviceID(fmt.Sprintf("ue-%02d", i+1))
		spec.Mobility = geo.Orbit{Radius: s.Distance, Phase: float64(i)}
		spec.StartOffset += time.Duration(i) * s.Spacing
		if ues[i], err = sim.AddUE(spec); err != nil {
			return nil, nil, nil, err
		}
	}
	return sim, relay, ues, nil
}

// PairScenario builds the paper's canonical measurement setup: one static
// relay at the origin and n UEs placed at the given distance (meters),
// every device running the same app profile. UE heartbeats start at 20 s,
// 5 s apart: collections arrive in a fixed order, and a horizon of
// k×period + 10 s covers exactly k heartbeats per UE including the final
// RRC release.
func PairScenario(opts Options, profile hbmsg.AppProfile, numUEs int, distance float64, capacity int) (*Simulation, error) {
	sim, _, _, err := Star{
		Relay:    RelaySpec{ID: "relay", Profile: profile, Capacity: capacity},
		UE:       UESpec{Apps: []hbmsg.AppProfile{profile}, StartOffset: 20 * time.Second},
		UEs:      numUEs,
		Distance: distance,
		Spacing:  5 * time.Second,
	}.Build(opts)
	return sim, err
}

// OriginalScenario builds the same topology as PairScenario but with D2D
// disabled everywhere: every device transmits its own heartbeats over
// cellular. This is the paper's "original system" baseline.
func OriginalScenario(opts Options, profile hbmsg.AppProfile, numUEs int, distance float64) (*Simulation, error) {
	opts.DisableD2D = true
	return PairScenario(opts, profile, numUEs, distance, 8)
}

// CrowdScenario scatters relays and UEs uniformly over a square area of the
// given side (meters) — the "high-density crowd" deployment where signaling
// storms arise (Section II-D). Devices are static; the per-device start
// offsets are randomized within one period so heartbeats are unsynchronized.
func CrowdScenario(opts Options, profile hbmsg.AppProfile, numRelays, numUEs int, side float64, capacity int) (*Simulation, error) {
	if numRelays < 0 || numUEs < 0 {
		return nil, fmt.Errorf("core: negative device counts %d/%d", numRelays, numUEs)
	}
	if side <= 0 {
		return nil, fmt.Errorf("core: area side must be positive, got %v", side)
	}
	sim, err := New(opts)
	if err != nil {
		return nil, err
	}
	area := geo.Square(side)
	rng := sim.sched.Rand()
	apps := []hbmsg.AppProfile{profile}
	for i := 0; i < numRelays; i++ {
		if _, err := sim.AddRelay(RelaySpec{
			ID:          hbmsg.DeviceID(fmt.Sprintf("relay-%02d", i+1)),
			Profile:     profile,
			Mobility:    geo.Static{P: area.RandomPoint(rng)},
			Capacity:    capacity,
			StartOffset: time.Duration(rng.Int63n(int64(profile.Period))),
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < numUEs; i++ {
		if _, err := sim.AddUE(UESpec{
			ID:          hbmsg.DeviceID(fmt.Sprintf("ue-%03d", i+1)),
			Apps:        apps,
			Mobility:    geo.Static{P: area.RandomPoint(rng)},
			StartOffset: time.Duration(rng.Int63n(int64(profile.Period))),
		}); err != nil {
			return nil, err
		}
	}
	return sim, nil
}
