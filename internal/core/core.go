// Package core assembles the complete D2D heartbeat-relaying framework: it
// wires the D2D Detector (discovery/connection), Message Monitor (per-app
// heartbeat generation) and Message Scheduler (Algorithm 1) onto the
// simulated substrates — discrete-event clock, radio medium, RRC/cellular
// network and energy model — and produces per-device and aggregate reports.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"d2dhb/internal/cellular"
	"d2dhb/internal/d2d"
	"d2dhb/internal/device"
	"d2dhb/internal/energy"
	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/matching"
	"d2dhb/internal/presence"
	"d2dhb/internal/radio"
	"d2dhb/internal/rrc"
	"d2dhb/internal/sched"
	"d2dhb/internal/simtime"
	"d2dhb/internal/trace"
)

// Options parameterize a Simulation.
type Options struct {
	// Seed drives every random choice; equal seeds reproduce runs
	// exactly.
	Seed int64
	// Duration is the simulated horizon.
	Duration time.Duration
	// Technique selects the D2D radio (Wi-Fi Direct by default).
	Technique radio.Technique
	// EnergyModel holds the charge constants; zero value selects the
	// paper calibration.
	EnergyModel *energy.Model
	// RRC holds the signaling model; zero value selects the default.
	RRC *rrc.Config
	// Match configures UE relay selection; zero value selects the
	// default.
	Match *matching.Config
	// Policy selects the relay scheduling policy (Algorithm 1 by
	// default).
	Policy sched.Kind
	// FixedDelay applies when Policy is KindFixedDelay.
	FixedDelay time.Duration
	// FeedbackTimeout overrides the UE ack wait (0 = default).
	FeedbackTimeout time.Duration
	// DisableD2D runs the original system: every device sends its own
	// heartbeats directly over cellular.
	DisableD2D bool
	// Channel enables control-channel load tracking (signaling-storm
	// analysis) when non-nil.
	Channel *cellular.ChannelConfig
	// Tracer receives one structured event per load-bearing action when
	// non-nil (see internal/trace).
	Tracer trace.Tracer
}

func (o Options) withDefaults() (Options, error) {
	if o.Duration <= 0 {
		return o, fmt.Errorf("core: duration must be positive, got %v", o.Duration)
	}
	if o.Technique == 0 {
		o.Technique = radio.WiFiDirect
	}
	if o.EnergyModel == nil {
		m := energy.DefaultModel()
		o.EnergyModel = &m
	}
	if o.RRC == nil {
		c := rrc.DefaultConfig()
		o.RRC = &c
	}
	if o.Match == nil {
		c := matching.DefaultConfig()
		o.Match = &c
	}
	if o.Policy == 0 {
		o.Policy = sched.KindNagle
	}
	return o, nil
}

// RelaySpec describes one relay device to add to the simulation.
type RelaySpec struct {
	ID          hbmsg.DeviceID
	Profile     hbmsg.AppProfile
	Mobility    geo.Mobility
	Capacity    int
	StartOffset time.Duration
}

// UESpec describes one UE device to add to the simulation.
type UESpec struct {
	ID      hbmsg.DeviceID
	Profile hbmsg.AppProfile
	// ExtraProfiles adds more apps to the same device, each with its own
	// heartbeat loop.
	ExtraProfiles []hbmsg.AppProfile
	Mobility      geo.Mobility
	StartOffset   time.Duration
}

// Simulation is a configured scenario ready to run.
type Simulation struct {
	opts   Options
	sched  *simtime.Scheduler
	medium *d2d.Medium
	bs     *cellular.BaseStation

	devices  []*simDevice // in registration order
	tracker  *presence.Tracker
	observer func(cellular.Delivery)
	ran      bool
}

// simDevice is one registered device: what the report reads per device,
// plus its state machine (exactly one of relay and ue once registered).
type simDevice struct {
	id     hbmsg.DeviceID
	role   d2d.Role
	ledger *energy.Ledger
	modem  *cellular.Modem
	relay  *device.Relay
	ue     *device.UE
}

// New builds an empty simulation; add devices with AddRelay/AddUE, then
// Run.
func New(opts Options) (*Simulation, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	s := simtime.NewScheduler(opts.Seed)
	profile, err := radio.ProfileFor(opts.Technique)
	if err != nil {
		return nil, err
	}
	medium, err := d2d.NewMedium(s, d2d.Config{Profile: profile, Model: *opts.EnergyModel})
	if err != nil {
		return nil, err
	}
	bs, err := cellular.NewBaseStation(s)
	if err != nil {
		return nil, err
	}
	if opts.Channel != nil {
		if err := bs.EnableControlChannel(*opts.Channel); err != nil {
			return nil, err
		}
	}
	sim := &Simulation{
		opts:    opts,
		sched:   s,
		medium:  medium,
		bs:      bs,
		tracker: presence.NewTracker(),
	}
	bs.OnDeliver(func(d cellular.Delivery) {
		// Out-of-order deliveries cannot occur: the event loop is
		// single-threaded and time is monotone.
		_ = sim.tracker.Deliver(d.HB, d.At)
		trace.Emit(opts.Tracer, trace.Event{
			At:     d.At,
			Device: string(d.HB.Src),
			Kind:   trace.KindDelivery,
			App:    d.HB.App,
			Seq:    d.HB.Seq,
			Peer:   string(d.Via),
			OnTime: d.OnTime,
		})
		if sim.observer != nil {
			sim.observer(d)
		}
	})
	return sim, nil
}

// OnDeliver registers an additional observer for network-side heartbeat
// deliveries (presence tracking stays active).
func (sim *Simulation) OnDeliver(f func(cellular.Delivery)) { sim.observer = f }

// Scheduler exposes the simulation clock, e.g. to inject failures at a
// chosen instant before Run.
func (sim *Simulation) Scheduler() *simtime.Scheduler { return sim.sched }

// Grow makes room for n more devices in every table a device joins, and
// in the event queue, so a caller that knows its population size builds
// and runs it without growing them.
func (sim *Simulation) Grow(n int) {
	sim.devices = slices.Grow(sim.devices, n)
	sim.medium.Grow(n)
	sim.bs.Grow(n)
	sim.tracker.Grow(n)
	sim.sched.Grow(n + n/2) // a city run's queue peaks at ~1.44 events per device
}

// join attaches a new device to the cellular network and the D2D medium
// and registers it for the report.
func (sim *Simulation) join(id hbmsg.DeviceID, role d2d.Role, mob geo.Mobility) (*simDevice, *d2d.Node, error) {
	if sim.ran {
		return nil, nil, errors.New("core: simulation already ran")
	}
	if mob == nil {
		mob = geo.Static{}
	}
	led := energy.NewLedger()
	modem, err := sim.bs.Attach(id, *sim.opts.EnergyModel, *sim.opts.RRC, led)
	if err != nil {
		return nil, nil, err
	}
	node, err := sim.medium.Join(id, role, mob, led)
	if err != nil {
		return nil, nil, err
	}
	dev := &simDevice{id: id, role: role, ledger: led, modem: modem}
	sim.devices = append(sim.devices, dev)
	return dev, node, nil
}

// AddRelay registers a relay device. Under DisableD2D the device is
// downgraded to a plain cellular sender, so the same topology can be run
// as the original system.
func (sim *Simulation) AddRelay(spec RelaySpec) (*device.Relay, error) {
	dev, node, err := sim.join(spec.ID, d2d.RoleRelay, spec.Mobility)
	if err != nil {
		return nil, err
	}
	if sim.opts.DisableD2D {
		// Original system: the would-be relay just sends its own
		// heartbeats directly; register it as a D2D-disabled UE.
		dev.ue, err = device.NewUE(sim.sched, node, dev.modem, device.UEConfig{
			ID:          spec.ID,
			Profile:     spec.Profile,
			Match:       *sim.opts.Match,
			StartOffset: spec.StartOffset,
			DisableD2D:  true,
			Tracer:      sim.opts.Tracer,
		})
		return nil, err
	}
	if spec.Capacity <= 0 {
		spec.Capacity = 8
	}
	policy, err := sched.New(sim.opts.Policy, spec.Capacity, spec.Profile.Period, sim.opts.FixedDelay)
	if err != nil {
		return nil, err
	}
	dev.relay, err = device.NewRelay(sim.sched, node, dev.modem, device.RelayConfig{
		ID:          spec.ID,
		Profile:     spec.Profile,
		Capacity:    spec.Capacity,
		Policy:      policy,
		StartOffset: spec.StartOffset,
		Tracer:      sim.opts.Tracer,
	})
	return dev.relay, err
}

// AddUE registers a UE device.
func (sim *Simulation) AddUE(spec UESpec) (*device.UE, error) {
	dev, node, err := sim.join(spec.ID, d2d.RoleUE, spec.Mobility)
	if err != nil {
		return nil, err
	}
	dev.ue, err = device.NewUE(sim.sched, node, dev.modem, device.UEConfig{
		ID:              spec.ID,
		Profile:         spec.Profile,
		ExtraProfiles:   spec.ExtraProfiles,
		Match:           *sim.opts.Match,
		FeedbackTimeout: sim.opts.FeedbackTimeout,
		StartOffset:     spec.StartOffset,
		DisableD2D:      sim.opts.DisableD2D,
		Tracer:          sim.opts.Tracer,
	})
	return dev.ue, err
}

// Run starts every device — relays first, then UEs, each in registration
// order — and executes the scenario to the configured horizon, returning
// the report. A simulation can only run once.
func (sim *Simulation) Run() (*Report, error) {
	if sim.ran {
		return nil, errors.New("core: simulation already ran")
	}
	if len(sim.devices) == 0 {
		return nil, errors.New("core: no devices added")
	}
	sim.ran = true
	for _, d := range sim.devices {
		if d.relay != nil {
			if err := d.relay.Start(); err != nil {
				return nil, err
			}
		}
	}
	for _, d := range sim.devices {
		if d.ue != nil {
			if err := d.ue.Start(); err != nil {
				return nil, err
			}
		}
	}
	if err := sim.sched.RunUntil(sim.opts.Duration); err != nil {
		return nil, fmt.Errorf("core: run: %w", err)
	}
	devs := make([]*DeviceReport, 0, len(sim.devices))
	for _, d := range sim.devices {
		devs = append(devs, NewDeviceReport(d.id, d.role, d.ledger, d.modem.Counters(),
			sim.tracker, sim.opts.Duration, d.relay, d.ue))
	}
	deliveries, late := sim.bs.Deliveries()
	return NewReport(sim.opts.Duration, devs, sim.bs.TotalL3Messages(), deliveries, late, sim.bs.ChannelReport()), nil
}

// DeviceReport is one device's share of the results.
type DeviceReport struct {
	ID   hbmsg.DeviceID
	Role d2d.Role
	// Energy holds the charge per phase, Energy[energy.PhaseCellular];
	// Charged is the set of phases the device was ever charged against.
	Energy  energy.Charges
	Charged energy.PhaseSet
	Total   energy.MicroAmpHours
	RRC     rrc.Counters
	// Availability is the fraction of time the device was online at the
	// IM server between its first delivered heartbeat and the horizon —
	// the instantaneity the framework must preserve (Section III).
	Availability float64
	// PresenceFlaps counts offline→online transitions at the server.
	PresenceFlaps int
	Relay         *device.RelayStats // nil for UEs
	// UE is nil for relays. A report is a result and read-only: the tile
	// kernel points UEs whose counters are equal at one record.
	UE *device.UEStats
}

// Report aggregates a finished run.
type Report struct {
	Duration        time.Duration
	Devices         []*DeviceReport
	TotalL3Messages int
	Deliveries      int
	LateDeliveries  int
	// Channel is the control-channel load summary (zero unless
	// Options.Channel enabled tracking).
	Channel cellular.ChannelReport

	// byID indexes Devices; built by the first Device call, since most
	// consumers of a population-scale report only range over Devices.
	byIDOnce sync.Once
	byID     map[hbmsg.DeviceID]*DeviceReport
}

// Device returns the report for one device.
func (r *Report) Device(id hbmsg.DeviceID) (*DeviceReport, bool) {
	r.byIDOnce.Do(func() {
		r.byID = make(map[hbmsg.DeviceID]*DeviceReport, len(r.Devices))
		for _, d := range r.Devices {
			r.byID[d.ID] = d
		}
	})
	d, ok := r.byID[id]
	return d, ok
}

// TotalEnergy sums charge across all devices.
func (r *Report) TotalEnergy() energy.MicroAmpHours {
	var sum energy.MicroAmpHours
	for _, d := range r.Devices {
		sum += d.Total
	}
	return sum
}

// EnergyByRole sums charge across devices with the given role.
func (r *Report) EnergyByRole(role d2d.Role) energy.MicroAmpHours {
	var sum energy.MicroAmpHours
	for _, d := range r.Devices {
		if d.Role == role {
			sum += d.Total
		}
	}
	return sum
}

// OnTimeRate returns the fraction of deliveries that met their deadline.
func (r *Report) OnTimeRate() float64 {
	if r.Deliveries == 0 {
		return 0
	}
	return float64(r.Deliveries-r.LateDeliveries) / float64(r.Deliveries)
}
