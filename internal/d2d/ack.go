package d2d

import (
	"fmt"

	"d2dhb/internal/hbmsg"
)

// AckRef identifies one forwarded heartbeat in a feedback acknowledgement.
type AckRef struct {
	Src hbmsg.DeviceID
	Seq uint64
}

// OnAck registers the handler invoked when a feedback acknowledgement
// arrives at this node, one per forwarded heartbeat. The feedback mechanism
// is how UEs learn their forwarded heartbeats were transmitted successfully
// (Section III-A); a missing acknowledgement triggers the cellular
// fallback.
func (n *Node) OnAck(h func(ref AckRef, link *Link)) { n.ack = h }

// SendAck transmits a feedback acknowledgement from `from` to the opposite
// endpoint. Acknowledgements are a few bytes and their radio energy is
// negligible next to heartbeat transfers, so no charge is recorded; they
// are still subject to range breaks and edge-zone loss like any transfer.
// A failure is reported as the bare ErrOutOfRange or ErrTransferFailed: a
// relay counts its failed acknowledgements and reads nothing more, so the
// error costs no allocation.
func (l *Link) SendAck(from *Node, ref AckRef) error {
	if !l.open {
		return ErrLinkClosed
	}
	if from != l.initiator && from != l.responder {
		return fmt.Errorf("d2d: node %s not an endpoint", from.id)
	}
	m := l.medium
	d := l.Distance()
	if !m.profile.InRange(d) {
		l.Close()
		return ErrOutOfRange
	}
	if !m.profile.TransferOK(d, m.sched.Rand()) {
		return ErrTransferFailed
	}
	to := l.Peer(from)
	if to.ack != nil {
		to.ack(ref, l)
	}
	return nil
}
