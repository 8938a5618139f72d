package device

import (
	"d2dhb/internal/d2d"
	"d2dhb/internal/energy"
	"d2dhb/internal/hbmsg"
)

// The UE and Relay state machines are stated once and run on two
// substrates: the sequential kernel (live d2d.Medium, cellular.Modem and a
// bare scheduler — live.go) and the windowed tile kernel (boundary-op
// queues over window snapshots — experiments/pardevice.go). The interfaces
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
// arrived over; it goes back to RelayRadio.Ack when the batch is flushed.
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
