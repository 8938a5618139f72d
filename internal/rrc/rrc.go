// Package rrc models the Radio Resource Control state machine of a cellular
// modem and accounts for the layer-3 signaling messages its transitions
// generate. Every transmission over the cellular network requires an RRC
// connection; establishing and releasing those connections is exactly the
// "cellular signaling traffic" the paper sets out to reduce, and the layer-3
// message counts here correspond to the NetOptiMaster captures of Fig. 15.
package rrc

import (
	"errors"
	"fmt"
	"time"

	"d2dhb/internal/simtime"
)

// State is the RRC connection state. The paper targets the two main LTE
// states (Section II-B); WCDMA's intermediate states are folded into the
// message counts of the transitions.
type State int

// RRC states.
const (
	Idle      State = iota + 1 // low-power, no radio connection
	Connected                  // high-power, radio bearer established
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Idle:
		return "IDLE"
	case Connected:
		return "CONNECTED"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config holds the signaling cost and timing parameters of the state
// machine.
type Config struct {
	// SetupMessages is the number of layer-3 messages exchanged to
	// establish an RRC connection (connection request, setup, setup
	// complete, security mode command/complete, ...).
	SetupMessages int
	// ReleaseMessages is the number of layer-3 messages exchanged to
	// release the connection after the inactivity timer expires.
	ReleaseMessages int
	// LargePayloadMessages is added once per transmission whose payload
	// exceeds LargePayloadBytes: radio bearer reconfiguration for a larger
	// grant. This reproduces Fig. 15's observation that "more data in once
	// transmission incurs more cellular traffic".
	LargePayloadMessages int
	// LargePayloadBytes is the payload threshold above which
	// LargePayloadMessages applies.
	LargePayloadBytes int
	// InactivityTail is how long the modem lingers in CONNECTED after the
	// last transmission before the network releases the connection.
	InactivityTail time.Duration
}

// DefaultConfig returns a WCDMA-like configuration: 5 setup + 3 release
// layer-3 messages per connection cycle (≈8 per heartbeat transmission,
// matching the slope of Fig. 15's "Original System" series) and a several-
// second high-power tail.
func DefaultConfig() Config {
	return Config{
		SetupMessages:        5,
		ReleaseMessages:      3,
		LargePayloadMessages: 1,
		LargePayloadBytes:    128,
		InactivityTail:       5 * time.Second,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.SetupMessages <= 0 {
		return fmt.Errorf("rrc: SetupMessages must be positive, got %d", c.SetupMessages)
	}
	if c.ReleaseMessages <= 0 {
		return fmt.Errorf("rrc: ReleaseMessages must be positive, got %d", c.ReleaseMessages)
	}
	if c.LargePayloadMessages < 0 {
		return fmt.Errorf("rrc: LargePayloadMessages must be non-negative, got %d", c.LargePayloadMessages)
	}
	if c.InactivityTail <= 0 {
		return fmt.Errorf("rrc: InactivityTail must be positive, got %v", c.InactivityTail)
	}
	return nil
}

// Counters aggregates the observable effects of the state machine.
type Counters struct {
	// L3Messages is the total layer-3 signaling messages generated.
	L3Messages int
	// Promotions counts IDLE→CONNECTED transitions.
	Promotions int
	// Releases counts CONNECTED→IDLE transitions.
	Releases int
	// Transmissions counts Send calls.
	Transmissions int
	// PayloadBytes is the total user payload transmitted.
	PayloadBytes int
	// ConnectedTime is the cumulative time spent in CONNECTED.
	ConnectedTime time.Duration
}

// Machine is a single modem's RRC state machine bound to a simulation
// clock. It is not safe for concurrent use (a device's events run on one
// goroutine at a time).
type Machine struct {
	clock simtime.Clock
	cfg   Config

	state        State
	connectedAt  time.Duration
	releaseTimer simtime.Handle
	onTail       func() // the release timer's callback, bound on first arm
	counters     Counters
	signaling    func(msgs int)
}

// OnSignaling registers a hook invoked with the number of layer-3 messages
// each state transition or transmission generates, at the virtual instant
// it happens. The base station uses it to build the control-channel load
// profile behind the signaling-storm analysis.
func (m *Machine) OnSignaling(hook func(msgs int)) { m.signaling = hook }

// emitSignaling counts messages and notifies the hook.
func (m *Machine) emitSignaling(msgs int) {
	m.counters.L3Messages += msgs
	if m.signaling != nil {
		m.signaling(msgs)
	}
}

// NewMachine returns an idle state machine on a bare scheduler.
func NewMachine(sched *simtime.Scheduler, cfg Config) (*Machine, error) {
	if sched == nil {
		return nil, errors.New("rrc: nil scheduler")
	}
	return NewMachineOn(simtime.SchedulerClock{S: sched}, cfg)
}

// NewMachineOn returns an idle state machine on any clock — a device's
// agenda in the tile-sharded kernel, so the release timer migrates with
// the device.
func NewMachineOn(clock simtime.Clock, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Machine{clock: clock, cfg: cfg, state: Idle}, nil
}

// State returns the current RRC state.
func (m *Machine) State() State { return m.state }

// Counters returns a snapshot of the accumulated counters. ConnectedTime
// includes the in-progress CONNECTED stretch, if any.
func (m *Machine) Counters() Counters {
	c := m.counters
	if m.state == Connected {
		c.ConnectedTime += m.clock.Now() - m.connectedAt
	}
	return c
}

// Send transmits payloadBytes at the current virtual instant, promoting to
// CONNECTED first if necessary, and (re)arms the inactivity release timer.
func (m *Machine) Send(payloadBytes int) error {
	if payloadBytes < 0 {
		return fmt.Errorf("rrc: negative payload %d", payloadBytes)
	}
	if m.state == Idle {
		m.promote()
	}
	m.counters.Transmissions++
	m.counters.PayloadBytes += payloadBytes
	if m.cfg.LargePayloadBytes > 0 && payloadBytes > m.cfg.LargePayloadBytes {
		m.emitSignaling(m.cfg.LargePayloadMessages)
	}
	return m.armReleaseTimer()
}

// ForceRelease releases the connection immediately, e.g. on device shutdown.
// It is a no-op when idle.
func (m *Machine) ForceRelease() {
	if m.state != Connected {
		return
	}
	m.clock.Stop(m.releaseTimer)
	m.releaseTimer = nil
	m.release()
}

func (m *Machine) promote() {
	m.state = Connected
	m.connectedAt = m.clock.Now()
	m.counters.Promotions++
	m.emitSignaling(m.cfg.SetupMessages)
}

func (m *Machine) release() {
	m.state = Idle
	m.counters.Releases++
	m.emitSignaling(m.cfg.ReleaseMessages)
	m.counters.ConnectedTime += m.clock.Now() - m.connectedAt
}

func (m *Machine) armReleaseTimer() error {
	if m.releaseTimer != nil {
		m.clock.Stop(m.releaseTimer)
	}
	if m.onTail == nil {
		m.onTail = func() {
			m.releaseTimer = nil
			m.release()
		}
	}
	t, err := m.clock.After(m.cfg.InactivityTail, m.onTail)
	if err != nil {
		return fmt.Errorf("rrc: arm release timer: %w", err)
	}
	m.releaseTimer = t
	return nil
}
