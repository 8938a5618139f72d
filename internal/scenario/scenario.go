// Package scenario loads simulation topologies from JSON so experiments can
// be described declaratively and run via cmd/d2dsim -config. A scenario
// names the global options (seed, horizon, radio technique, scheduling
// policy) and the device population with positions, app profiles and
// mobility.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"d2dhb/internal/cellular"
	"d2dhb/internal/core"
	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/radio"
	"d2dhb/internal/sched"
	"d2dhb/internal/trace"
)

// Duration wraps time.Duration with JSON string parsing ("270s", "45m").
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"270s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("scenario: bad duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// Std returns the wrapped time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Mobility describes how a device moves.
type Mobility struct {
	// Type is "static" (default), "line", "orbit" or "waypoint".
	Type string `json:"type"`
	// X, Y is the position (static), start (line) or center (orbit).
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// ToX, ToY is the line destination.
	ToX float64 `json:"toX"`
	ToY float64 `json:"toY"`
	// Speed is m/s for line; MinSpeed/MaxSpeed bound the waypoint walk.
	Speed    float64 `json:"speedMps"`
	MinSpeed float64 `json:"minSpeedMps"`
	MaxSpeed float64 `json:"maxSpeedMps"`
	// Radius and OmegaRadPerSec parameterize an orbit.
	Radius         float64 `json:"radiusM"`
	OmegaRadPerSec float64 `json:"omegaRadPerSec"`
	// Pause is the waypoint dwell time.
	Pause Duration `json:"pause"`
	// AreaSide bounds the waypoint walk (meters).
	AreaSide float64 `json:"areaSideM"`
	// Seed drives the waypoint walk (0 = derived from device order).
	Seed int64 `json:"seed"`
}

func (m Mobility) build(defaultSeed int64) (geo.Mobility, error) {
	switch strings.ToLower(m.Type) {
	case "", "static":
		return geo.Static{P: geo.Point{X: m.X, Y: m.Y}}, nil
	case "line":
		return geo.Line{
			From:  geo.Point{X: m.X, Y: m.Y},
			To:    geo.Point{X: m.ToX, Y: m.ToY},
			Speed: m.Speed,
		}, nil
	case "orbit":
		return geo.Orbit{
			Center: geo.Point{X: m.X, Y: m.Y},
			Radius: m.Radius,
			Omega:  m.OmegaRadPerSec,
		}, nil
	case "waypoint":
		side := m.AreaSide
		if side <= 0 {
			return nil, fmt.Errorf("scenario: waypoint mobility needs areaSideM > 0")
		}
		seed := m.Seed
		if seed == 0 {
			seed = defaultSeed
		}
		return geo.NewRandomWaypoint(geo.Square(side), geo.Point{X: m.X, Y: m.Y},
			m.MinSpeed, m.MaxSpeed, m.Pause.Std(), seed)
	default:
		return nil, fmt.Errorf("scenario: unknown mobility type %q", m.Type)
	}
}

// Device describes one relay or UE.
type Device struct {
	ID string `json:"id"`
	// App is the profile name: standard, wechat, whatsapp, qq, facebook.
	App string `json:"app"`
	// ExtraApps adds more apps to a UE.
	ExtraApps []string `json:"extraApps"`
	// Capacity is the relay collection capacity M (relays only).
	Capacity    int      `json:"capacity"`
	StartOffset Duration `json:"startOffset"`
	Mobility    Mobility `json:"mobility"`
}

// Config is one declarative scenario.
type Config struct {
	Seed     int64    `json:"seed"`
	Duration Duration `json:"duration"`
	// Technique is wifi-direct (default), bluetooth or lte-direct.
	Technique string `json:"technique"`
	// Policy is nagle (default), immediate, fixed-delay or period-aligned.
	Policy string `json:"policy"`
	// FixedDelay applies to the fixed-delay policy.
	FixedDelay Duration `json:"fixedDelay"`
	// Channel enables control-channel load tracking.
	Channel bool     `json:"channel"`
	Relays  []Device `json:"relays"`
	UEs     []Device `json:"ues"`
}

// Load parses a scenario from JSON, rejecting unknown fields.
func Load(r io.Reader) (*Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// Validate reports the first structural problem in the scenario.
func (c *Config) Validate() error {
	if c.Duration.Std() <= 0 {
		return fmt.Errorf("scenario: duration must be positive")
	}
	if len(c.Relays)+len(c.UEs) == 0 {
		return fmt.Errorf("scenario: no devices")
	}
	seen := make(map[string]bool, len(c.Relays)+len(c.UEs))
	for _, d := range append(append([]Device(nil), c.Relays...), c.UEs...) {
		if d.ID == "" {
			return fmt.Errorf("scenario: device with empty id")
		}
		if seen[d.ID] {
			return fmt.Errorf("scenario: duplicate device id %q", d.ID)
		}
		seen[d.ID] = true
		if _, err := hbmsg.ProfileByName(d.App); err != nil {
			return err
		}
		for _, extra := range d.ExtraApps {
			if _, err := hbmsg.ProfileByName(extra); err != nil {
				return err
			}
		}
	}
	if _, err := techniqueByName(c.Technique); err != nil {
		return err
	}
	if _, err := sched.ParseKind(c.Policy); err != nil {
		return err
	}
	return nil
}

// Build constructs the simulation described by the scenario, with the
// tracer attached (nil: none). disableD2D builds the original-system
// baseline of the same topology.
func (c *Config) Build(disableD2D bool, tracer trace.Tracer) (*core.Simulation, error) {
	tech, err := techniqueByName(c.Technique)
	if err != nil {
		return nil, err
	}
	policy, err := sched.ParseKind(c.Policy)
	if err != nil {
		return nil, err
	}
	opts := core.Options{
		Seed:       c.Seed,
		Duration:   c.Duration.Std(),
		Technique:  tech,
		Policy:     policy,
		FixedDelay: c.FixedDelay.Std(),
		DisableD2D: disableD2D,
		Tracer:     tracer,
	}
	if c.Channel {
		ch := cellular.DefaultChannelConfig()
		opts.Channel = &ch
	}
	sim, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	for i, d := range c.Relays {
		profile, err := hbmsg.ProfileByName(d.App)
		if err != nil {
			return nil, err
		}
		mob, err := d.Mobility.build(c.Seed + int64(i) + 1)
		if err != nil {
			return nil, fmt.Errorf("scenario: relay %s: %w", d.ID, err)
		}
		if _, err := sim.AddRelay(core.RelaySpec{
			ID:          hbmsg.DeviceID(d.ID),
			Profile:     profile,
			Mobility:    mob,
			Capacity:    d.Capacity,
			StartOffset: d.StartOffset.Std(),
		}); err != nil {
			return nil, err
		}
	}
	for i, d := range c.UEs {
		profile, err := hbmsg.ProfileByName(d.App)
		if err != nil {
			return nil, err
		}
		var extras []hbmsg.AppProfile
		for _, name := range d.ExtraApps {
			p, err := hbmsg.ProfileByName(name)
			if err != nil {
				return nil, err
			}
			extras = append(extras, p)
		}
		mob, err := d.Mobility.build(c.Seed + int64(len(c.Relays)+i) + 1)
		if err != nil {
			return nil, fmt.Errorf("scenario: ue %s: %w", d.ID, err)
		}
		if _, err := sim.AddUE(core.UESpec{
			ID:            hbmsg.DeviceID(d.ID),
			Profile:       profile,
			ExtraProfiles: extras,
			Mobility:      mob,
			StartOffset:   d.StartOffset.Std(),
		}); err != nil {
			return nil, err
		}
	}
	return sim, nil
}

func techniqueByName(name string) (radio.Technique, error) {
	switch strings.ToLower(name) {
	case "", "wifi-direct":
		return radio.WiFiDirect, nil
	case "bluetooth":
		return radio.Bluetooth, nil
	case "lte-direct":
		return radio.LTEDirect, nil
	default:
		return 0, fmt.Errorf("scenario: unknown technique %q", name)
	}
}
