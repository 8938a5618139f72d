package device

import (
	"d2dhb/internal/d2d"
	"d2dhb/internal/hbmsg"
)

// The sequential substrate: every effect is applied to the live d2d.Medium
// at the instant it happens. cellular.Modem is an Uplink as it stands.

// liveNode is a device's d2d.Node as its Radio or RelayRadio. A relay's
// return paths are the *d2d.Link each heartbeat arrived over.
type liveNode struct{ node *d2d.Node }

func (r liveNode) Scan() []d2d.PeerInfo { return r.node.Scan() }

func (r liveNode) Connect(peer hbmsg.DeviceID) (Link, error) {
	l, err := r.node.Connect(peer)
	if err != nil {
		return nil, err
	}
	return liveLink{l}, nil
}

func (r liveNode) Advertise(free, intent int) {
	r.node.SetAccepting(true)
	r.node.Advertise(free, intent)
}

func (r liveNode) Ack(via ReturnPath, ref d2d.AckRef) error {
	return via.(*d2d.Link).SendAck(r.node, ref)
}

func (r liveNode) Shutdown() {
	r.node.SetAccepting(false)
	for _, l := range r.node.Links() {
		l.Close()
	}
}

// liveLink is a d2d.Link seen from its initiator, the UE.
type liveLink struct{ *d2d.Link }

func (l liveLink) PeerFree() int {
	free, _ := l.Responder().Advertised()
	return free
}

func (l liveLink) PeerID() hbmsg.DeviceID { return l.Responder().ID() }

func (l liveLink) Send(hb hbmsg.Heartbeat) error { return l.Link.Send(l.Initiator(), hb) }
