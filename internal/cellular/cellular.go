// Package cellular models the cellular access network: a base station and
// per-device modems. A modem transmission drives the device's RRC state
// machine (generating layer-3 signaling traffic) and charges the device's
// energy ledger; the payload heartbeats are delivered network-side through
// the base station, where the IM server observes them.
package cellular

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"d2dhb/internal/energy"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/rrc"
	"d2dhb/internal/simtime"
)

// ErrDuplicateID reports an attach with an already-used device id.
var ErrDuplicateID = errors.New("cellular: duplicate device id")

// Delivery is one heartbeat observed at the network side.
type Delivery struct {
	// HB is the delivered heartbeat.
	HB hbmsg.Heartbeat
	// Via is the device whose cellular transmission carried the heartbeat
	// (the relay, when forwarded; the source itself otherwise).
	Via hbmsg.DeviceID
	// At is the delivery instant.
	At time.Duration
	// OnTime reports whether the heartbeat arrived before its deadline.
	OnTime bool
}

// BaseStation is the shared network side. All modems attach to it; it
// aggregates signaling counters and forwards delivered heartbeats to an
// observer (the IM server in the simulation).
type BaseStation struct {
	sched   *simtime.Scheduler
	modems  map[hbmsg.DeviceID]*Modem
	order   []*Modem
	observe func(Delivery)
	channel *controlChannel
	// model is the validated energy model of the latest Attach. Modems
	// attached with an equal model share it: a population runs on one
	// model, and a private 192-byte copy was four fifths of each modem.
	model *energy.Model

	deliveries int
	late       int
}

// NewBaseStation builds a base station on the scheduler.
func NewBaseStation(sched *simtime.Scheduler) (*BaseStation, error) {
	if sched == nil {
		return nil, errors.New("cellular: nil scheduler")
	}
	return &BaseStation{
		sched:  sched,
		modems: make(map[hbmsg.DeviceID]*Modem),
	}, nil
}

// OnDeliver registers the network-side observer for delivered heartbeats.
func (bs *BaseStation) OnDeliver(f func(Delivery)) { bs.observe = f }

// Attach registers a device modem. The ledger receives cellular energy
// charges; rrcCfg parameterizes the signaling model.
func (bs *BaseStation) Attach(id hbmsg.DeviceID, model energy.Model, rrcCfg rrc.Config, ledger *energy.Ledger) (*Modem, error) {
	if id == "" {
		return nil, errors.New("cellular: empty device id")
	}
	if ledger == nil {
		return nil, errors.New("cellular: nil ledger")
	}
	if bs.model == nil || *bs.model != model {
		if err := model.Validate(); err != nil {
			return nil, fmt.Errorf("cellular: model: %w", err)
		}
		shared := model
		bs.model = &shared
	}
	if _, ok := bs.modems[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	machine, err := rrc.NewMachine(bs.sched, rrcCfg)
	if err != nil {
		return nil, fmt.Errorf("cellular: rrc: %w", err)
	}
	m := &Modem{
		id:      id,
		bs:      bs,
		machine: machine,
		model:   bs.model,
		ledger:  ledger,
	}
	bs.modems[id] = m
	bs.order = append(bs.order, m)
	bs.wireChannel(m)
	return m, nil
}

// Modem looks up an attached modem.
func (bs *BaseStation) Modem(id hbmsg.DeviceID) (*Modem, bool) {
	m, ok := bs.modems[id]
	return m, ok
}

// Modems returns all attached modems in attach order.
func (bs *BaseStation) Modems() []*Modem { return slices.Clone(bs.order) }

// Grow makes room for n more modems, so a caller that knows its population
// attaches it without growing the base station's tables.
func (bs *BaseStation) Grow(n int) {
	modems := make(map[hbmsg.DeviceID]*Modem, len(bs.modems)+n)
	maps.Copy(modems, bs.modems)
	bs.modems = modems
	bs.order = slices.Grow(bs.order, n)
}

// TotalL3Messages sums layer-3 signaling messages across all modems — the
// quantity the operator wants minimized (Fig. 15).
func (bs *BaseStation) TotalL3Messages() int {
	total := 0
	for _, m := range bs.modems {
		total += m.Counters().L3Messages
	}
	return total
}

// TotalTransmissions sums cellular transmissions across all modems.
func (bs *BaseStation) TotalTransmissions() int {
	total := 0
	for _, m := range bs.modems {
		total += m.Counters().Transmissions
	}
	return total
}

// Deliveries returns how many heartbeats reached the network side, and how
// many of those were late.
func (bs *BaseStation) Deliveries() (total, late int) {
	return bs.deliveries, bs.late
}

// L3ByDevice returns per-device layer-3 message counts keyed by device id,
// in a deterministically ordered copy.
func (bs *BaseStation) L3ByDevice() map[hbmsg.DeviceID]int {
	out := make(map[hbmsg.DeviceID]int, len(bs.modems))
	ids := make([]string, 0, len(bs.modems))
	for id := range bs.modems {
		ids = append(ids, string(id))
	}
	slices.Sort(ids)
	for _, id := range ids {
		out[hbmsg.DeviceID(id)] = bs.modems[hbmsg.DeviceID(id)].Counters().L3Messages
	}
	return out
}

func (bs *BaseStation) deliver(hbs []hbmsg.Heartbeat, via hbmsg.DeviceID) {
	now := bs.sched.Now()
	for _, hb := range hbs {
		onTime := !hb.Expired(now)
		bs.deliveries++
		if !onTime {
			bs.late++
		}
		if bs.observe != nil {
			bs.observe(Delivery{HB: hb, Via: via, At: now, OnTime: onTime})
		}
	}
}

// Modem is one device's cellular interface.
type Modem struct {
	id      hbmsg.DeviceID
	bs      *BaseStation
	machine *rrc.Machine
	model   *energy.Model // shared, read-only
	ledger  *energy.Ledger
}

// ID returns the owning device id.
func (m *Modem) ID() hbmsg.DeviceID { return m.id }

// Counters returns the modem's RRC counters.
func (m *Modem) Counters() rrc.Counters { return m.machine.Counters() }

// State returns the current RRC state.
func (m *Modem) State() rrc.State { return m.machine.State() }

// Send transmits a batch of heartbeats in one cellular connection, charging
// the given energy phase (PhaseCellular for scheduled sends, PhaseFallback
// for duplicate sends after feedback loss). Aggregating several heartbeats
// into one Send is exactly the relay's signaling- and energy-saving lever.
func (m *Modem) Send(hbs []hbmsg.Heartbeat, phase energy.Phase) error {
	if len(hbs) == 0 {
		return errors.New("cellular: empty batch")
	}
	payload := 0
	for _, hb := range hbs {
		payload += hb.Size
	}
	if err := m.machine.Send(payload); err != nil {
		return fmt.Errorf("cellular: %w", err)
	}
	m.ledger.Add(phase, m.model.CellularTxCharge(len(hbs), payload))
	m.bs.deliver(hbs, m.id)
	return nil
}

// Shutdown releases any open RRC connection (end of simulation teardown).
func (m *Modem) Shutdown() { m.machine.ForceRelease() }
