package device

import (
	"d2dhb/internal/d2d"
	"d2dhb/internal/energy"
	"d2dhb/internal/hbmsg"
)

// The UE and Relay state machines are stated once and run on two
// substrates: the sequential kernel (live d2d.Medium, cellular.Modem and a
// bare scheduler — live.go) and the windowed tile kernel (boundary-op
// queues over window snapshots — experiments/pardevice.go). The Relay runs
// on a third, the live TCP relay (relaynet.RelayAgent: UE connections,
// presence shards, and a scheduler it feeds wall time). The interfaces
// below, together with simtime.Clock and trace.Tracer, are everything the
// state machines touch outside their own state. Energy for every effect is
// charged by the substrate.

// Radio is the UE's side of D2D discovery and group formation.
type Radio interface {
	// Scan performs one discovery and returns the accepting relays in
	// range, nearest first by estimated distance.
	Scan() []d2d.PeerInfo
	// Connect forms a link to the relay, or returns the UE's current link
	// when it is already open to that relay.
	Connect(peer hbmsg.DeviceID) (Link, error)
}

// Link is the UE's end of an established D2D connection. Link values are
// compared with == to tell a hand-over from a reconnect, so one connection
// is one value.
type Link interface {
	Open() bool
	// Distance is the current separation of the endpoints in meters.
	Distance() float64
	// PeerFree is the relay's advertised remaining collection capacity.
	PeerFree() int
	PeerID() hbmsg.DeviceID
	// Send forwards one heartbeat to the relay. A send that finds the
	// relay out of range closes the link; a lost transfer leaves it open.
	Send(hb hbmsg.Heartbeat) error
	Close()
}

// ReturnPath is the relay's opaque handle on the connection a heartbeat
// arrived over; it goes back to RelayRadio.Ack when the heartbeat is
// confirmed.
type ReturnPath any

// RelayRadio is the relay's side of the D2D substrate.
type RelayRadio interface {
	// Advertise starts (or keeps) answering discovery with the given
	// remaining capacity and group-owner intent.
	Advertise(free, intent int)
	// Ack sends the feedback for one delivered heartbeat back to its UE.
	Ack(via ReturnPath, ref d2d.AckRef) error
	// Shutdown stops answering discovery and drops every connection.
	Shutdown()
}

// Uplink is a device's cellular modem: one call is one RRC connection. Send
// copies what it keeps of hbs; the caller reuses the slice.
type Uplink interface {
	Send(hbs []hbmsg.Heartbeat, phase energy.Phase) error
}

// Forwarder carries a relay's flushes. Forward transmits one batch — the
// collected heartbeats, then the relay's own — and reports what left:
//   - err non-nil: nothing left;
//   - lost: the indices into hbs of heartbeats that did not leave when the
//     rest did;
//   - acked: the server's acknowledgement came back inside the call, so the
//     relay feeds back to the UEs at once, in batch order. Otherwise the
//     substrate calls Relay.Confirm as acknowledgements arrive.
//
// Forward copies what it keeps of hbs; the caller reuses the slice.
type Forwarder interface {
	Forward(hbs []hbmsg.Heartbeat) (lost []int, acked bool, err error)
}

// Cellular is a modem as a relay's Forwarder: one flush is one RRC
// connection, delivered and acknowledged by the time Send returns.
type Cellular struct{ Uplink }

func (c Cellular) Forward(hbs []hbmsg.Heartbeat) (lost []int, acked bool, err error) {
	return nil, true, c.Send(hbs, energy.PhaseCellular)
}
