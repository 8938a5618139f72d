package experiments

// Trace replay on the simulated substrate. ReplaySim drives a recorded
// arrival timeline (internal/rec) through the simulator's own machines on
// one cellular.BaseStation: every recorded send arrives at its recorded
// offset; a direct client sends it on its own modem, a relayed group is a
// device.Relay running Algorithm 1 with the trace's period and capacity,
// and a trunked group sends each recorded emission (rec.Timeline.Steps) as
// one uplink and adds no heartbeat of its own, as a live trunk does. The
// replay records its own timeline and reports that timeline's
// RecordedMetrics, the summary the recorded and live columns use. The run
// is single-threaded virtual time seeded from the trace, so two replays of
// the same trace produce bit-identical metrics — the digest is a
// regression key.

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"d2dhb/internal/cellular"
	"d2dhb/internal/d2d"
	"d2dhb/internal/device"
	"d2dhb/internal/energy"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/rec"
	"d2dhb/internal/rrc"
	"d2dhb/internal/simtime"
)

// replayBaseSize is the modeled wire size of one replayed heartbeat before
// padding (the paper's standard 54 B keep-alive).
const replayBaseSize = 54

// replayUnit is one sender of the replay, a direct client or a
// relay/trunk group, on its own modem. A relayed group's relay collects
// its sends by Algorithm 1; any other unit sends each recorded emission
// whole, steps being those still to go and held the one under way.
type replayUnit struct {
	modem *cellular.Modem
	relay *device.Relay
	steps [][]rec.Event
	held  []hbmsg.Heartbeat
}

// noRadio is a replayed relay's D2D side: the replay hands it every
// recorded arrival, and its feedback goes nowhere.
type noRadio struct{}

func (noRadio) Advertise(int, int)                      {}
func (noRadio) Ack(device.ReturnPath, d2d.AckRef) error { return nil }
func (noRadio) Shutdown()                               {}

// ReplaySim replays the recorded timeline through the simulator and
// returns its deterministic outcome metrics: a send at each arrival, an
// ack at each client heartbeat the base station delivers and a timeout at
// each heartbeat a relay rejects, plus the base station's signalling.
func ReplaySim(tl *rec.Timeline) (rec.Metrics, error) {
	if tl == nil {
		return rec.Metrics{}, fmt.Errorf("experiments: nil timeline")
	}
	if err := tl.Validate(); err != nil {
		return rec.Metrics{}, err
	}
	clock := simtime.NewScheduler(tl.Seed)
	bs, err := cellular.NewBaseStation(clock)
	if err != nil {
		return rec.Metrics{}, err
	}
	var out rec.Timeline
	record := func(kind rec.EventKind, client int, seq uint64) {
		out.Events = append(out.Events, rec.Event{At: clock.Now(), Kind: kind, Client: client, Seq: seq})
	}
	// A replayed heartbeat's source is its client's row in the trace, so a
	// delivery names its client even where two rows share an ID; a relay's
	// own heartbeat names none.
	bs.OnDeliver(func(d cellular.Delivery) {
		if i, err := strconv.Atoi(string(d.HB.Src)); err == nil {
			record(rec.EvAck, i, d.HB.Seq)
		}
	})

	model, rrcCfg, ledger := energy.DefaultModel(), rrc.DefaultConfig(), energy.NewLedger()
	unitOf := make([]*replayUnit, len(tl.Clients)) // each client's sender
	var groups []*replayUnit                       // in the order of their first sends
	for i, steps := range tl.Units(rec.Coalesce) {
		id := hbmsg.DeviceID(fmt.Sprintf("unit%d", i))
		u := &replayUnit{steps: steps}
		if u.modem, err = bs.Attach(id, model, rrcCfg, ledger); err != nil {
			return rec.Metrics{}, err
		}
		if c := tl.Clients[steps[0][0].Client]; c.Relay >= 0 {
			if u.relay, err = replayRelay(tl, c.Path, id, clock, u.modem); err != nil {
				return rec.Metrics{}, err
			}
			groups = append(groups, u)
		}
		for _, e := range slices.Concat(steps...) {
			unitOf[e.Client] = u
		}
	}

	var last time.Duration
	for _, e := range tl.Events {
		if e.Kind != rec.EvSend {
			continue
		}
		// An arrival lands after everything else due at its instant.
		if err := clock.RunUntil(e.At); err != nil {
			return rec.Metrics{}, err
		}
		last = e.At
		c := tl.Clients[e.Client]
		expiry := c.Expiry
		if expiry <= 0 {
			expiry = c.Period
		}
		hb := hbmsg.Heartbeat{App: c.App, Src: hbmsg.DeviceID(strconv.Itoa(e.Client)), Seq: e.Seq,
			Origin: e.At, Expiry: expiry, Size: replayBaseSize + c.Pad}
		record(rec.EvSend, e.Client, e.Seq)
		u := unitOf[e.Client]
		if u.relay != nil {
			collected := u.relay.Stats().Collected
			if u.relay.Receive(hb, nil); u.relay.Stats().Collected == collected {
				record(rec.EvTimeout, e.Client, e.Seq)
			}
			continue
		}
		if u.held = append(u.held, hb); len(u.held) == len(u.steps[0]) {
			if err := u.modem.Send(u.held, energy.PhaseCellular); err != nil {
				return rec.Metrics{}, err
			}
			u.steps, u.held = u.steps[1:], u.held[:0]
		}
	}

	// A relay runs one period past the last send, so everything it
	// collected has left, and stops before another heartbeat of its own
	// does. The clock then runs on for every RRC release tail to land.
	if err := clock.RunUntil(last + tl.RelayPeriod); err != nil {
		return rec.Metrics{}, err
	}
	for _, u := range groups {
		if u.relay != nil {
			u.relay.Stop()
		}
	}
	if err := clock.RunUntil(tl.Horizon() + tl.RelayPeriod + rrcCfg.InactivityTail + time.Second); err != nil {
		return rec.Metrics{}, err
	}
	for _, m := range bs.Modems() {
		m.Shutdown()
	}

	m := out.RecordedMetrics()
	m.Source = "sim"
	m.Signaling.Uplinks = uint64(bs.TotalTransmissions())
	m.Signaling.L3Messages = uint64(bs.TotalL3Messages())
	for _, u := range groups {
		m.Signaling.Batches += uint64(u.modem.Counters().Transmissions)
		if u.relay != nil {
			m.Expired += uint64(u.relay.Stats().RejectedExpired)
		}
	}
	return m, nil
}

// replayRelay returns a relayed group's relay, started on the trace's
// period grid with its capacity, or nil for a trunked group.
func replayRelay(tl *rec.Timeline, path rec.Path, id hbmsg.DeviceID, clock *simtime.Scheduler, modem *cellular.Modem) (*device.Relay, error) {
	if tl.RelayPeriod <= 0 || tl.RelayCapacity <= 0 {
		return nil, fmt.Errorf("experiments: trace has relay clients but relay period %v / capacity %d",
			tl.RelayPeriod, tl.RelayCapacity)
	}
	if path != rec.PathRelayed {
		return nil, nil
	}
	r, err := device.NewRelayOn(simtime.SchedulerClock{S: clock}, noRadio{}, device.Cellular{Uplink: modem}, device.RelayConfig{
		ID:       id,
		Profile:  hbmsg.AppProfile{Name: "relay", Period: tl.RelayPeriod, Size: replayBaseSize, ExpiryFactor: 1},
		Capacity: tl.RelayCapacity,
	})
	if err != nil {
		return nil, err
	}
	return r, r.Start()
}
