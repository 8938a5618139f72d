package session

import (
	"encoding/binary"
	"errors"
	"sync"

	"d2dhb/internal/hbproto"
)

// errAckUnknown is a v2 ack's error when it names a frame that is not
// awaiting an ack on its connection, or names none.
var errAckUnknown = errors.New("session: ack of a frame not awaiting one")

// ackRing is what one v2 uplink connection's acks settle: the refs of every
// heartbeat-carrying frame written on it, frame by frame, in write order,
// each as the sender's wire step made it (Src, Seq, and Handle, the
// sender's own key), and each frame's CRC, which a v2 Ack names it by. A
// Write's frames are recorded before the Write, so no ack can overtake
// them; the connection's reader takes an ack's frames off the front and
// hands on their refs as a v1 ack would have listed them. A frame before
// an acknowledged one that the ack does not name never reached the peer (a
// write swallowed on a live connection): it is dropped, and its heartbeats
// stay with the owner's loss rule. The ring grows to the most refs ever
// awaiting an ack at once and then reuses its arrays, and it dies with its
// connection.
type ackRing struct {
	mu      sync.Mutex
	refs    []hbproto.Ref // refs[lo:] await an ack
	frames  []ringFrame   // frames[flo:] await an ack
	lo, flo int
	out     []hbproto.Ref // take's result, the reader's alone
}

// ringFrame is one frame awaiting an ack: its CRC and how many refs it has.
type ringFrame struct {
	sum  uint32
	size int32
}

// encode appends n v2 frames — frame(i) for i in [0, n) — to out and
// records the heartbeat-carrying ones. A frame that fails to encode takes
// back the records of all n. frame runs under r.mu: the reader takes r.mu
// only in take, holding nothing else, so the worst an encode does to it is
// make an ack wait until the frames are recorded.
func (r *ackRing) encode(out []byte, n int, frame func(i int) hbproto.Message) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.compact()
	refs, frames := len(r.refs), len(r.frames)
	for i := 0; i < n; i++ {
		msg := frame(i)
		var err error
		if out, err = hbproto.AppendFrameV(out, hbproto.Version2, msg); err != nil {
			r.refs, r.frames = r.refs[:refs], r.frames[:frames]
			return out, err
		}
		sum := binary.BigEndian.Uint32(out[len(out)-4:])
		switch m := msg.(type) {
		case *hbproto.Heartbeat:
			r.record(sum, *m)
		case *hbproto.Batch:
			r.record(sum, m.HBs...)
		}
	}
	return out, nil
}

// record appends one frame's heartbeats, if it has any.
func (r *ackRing) record(sum uint32, hbs ...hbproto.Heartbeat) {
	if len(hbs) == 0 {
		return
	}
	for i := range hbs {
		r.refs = append(r.refs, hbproto.Ref{Src: hbs[i].Src, Seq: hbs[i].Seq, Handle: hbs[i].Handle})
	}
	r.frames = append(r.frames, ringFrame{sum: sum, size: int32(len(hbs))})
}

// compact moves what awaits an ack to the front of each array once what
// was acknowledged is at least as long, so the arrays stay within twice
// their high-water mark.
func (r *ackRing) compact() {
	if r.lo > 0 && r.lo >= len(r.refs)-r.lo {
		r.refs, r.lo = r.refs[:copy(r.refs, r.refs[r.lo:])], 0
	}
	if r.flo > 0 && r.flo >= len(r.frames)-r.flo {
		r.frames, r.flo = r.frames[:copy(r.frames, r.frames[r.flo:])], 0
	}
}

// take removes the frames an ack names by their CRCs, and those written
// before them that it skips, and returns the named frames' refs in write
// order, in a slice the next take reuses. An ack that names no frame, or
// one not awaiting an ack, is an error.
func (r *ackRing) take(sums []uint32) ([]hbproto.Ref, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(sums) == 0 {
		return nil, errAckUnknown
	}
	r.out = r.out[:0]
	for _, sum := range sums {
		for {
			if r.flo == len(r.frames) {
				return nil, errAckUnknown
			}
			f := r.frames[r.flo]
			refs := r.refs[r.lo : r.lo+int(f.size)]
			r.flo, r.lo = r.flo+1, r.lo+int(f.size)
			if f.sum == sum {
				r.out = append(r.out, refs...)
				break
			}
		}
	}
	return r.out, nil
}
