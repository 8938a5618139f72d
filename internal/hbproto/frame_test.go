package hbproto

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"sync"
)

// In-package copies of hbprototest's helpers. readFrame is the fuzz
// target's reference decoder: it decodes with no intern table, so every
// Handle it returns is 0.

// framePool recycles writeFrame's encode buffers, so the single-frame path
// stays allocation-free in steady state.
var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 512)} }}

type frameBuf struct{ b []byte }

// writeFrame encodes and writes one message as one Write.
func writeFrame(w io.Writer, msg Message) error {
	fb := framePool.Get().(*frameBuf)
	out, err := AppendFrame(fb.b[:0], msg)
	if err == nil {
		_, err = w.Write(out)
	}
	fb.b = out[:0]
	framePool.Put(fb)
	return err
}

// readFrame reads and decodes one message of either version, allocating a
// fresh Message per call.
func readFrame(r io.Reader) (Message, error) {
	var v byte
	return readFrameOn(r, &v)
}

// readFrameOn is readFrame on a stream that speaks version *v: 0 until its
// first frame, whose version it then becomes.
func readFrameOn(r io.Reader, v *byte) (Message, error) {
	var head [headerSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	if head[0] != magic[0] || head[1] != magic[1] {
		return nil, ErrBadMagic
	}
	switch fv := head[2]; {
	case fv != Version && fv != Version2:
		return nil, errBadVersion(fv)
	case *v == 0:
		*v = fv
	case fv != *v:
		return nil, ErrMixedVersion
	}
	length := binary.BigEndian.Uint32(head[4:8])
	if length > MaxFrameSize {
		return nil, ErrFrameTooBig
	}
	payload := make([]byte, length+4)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	body, sum := payload[:length], binary.BigEndian.Uint32(payload[length:])
	want := crc32.ChecksumIEEE(body)
	if *v == Version2 {
		want = crc32.Update(crc32.ChecksumIEEE(head[:]), crc32.IEEETable, body)
	}
	if want != sum {
		return nil, ErrBadChecksum
	}
	msg, err := newMessage(MsgType(head[3]))
	if err != nil {
		return nil, err
	}
	if err := decodeBody(msg, body, *v, nil); err != nil {
		return nil, err
	}
	return msg, nil
}

func newMessage(t MsgType) (Message, error) {
	switch t {
	case TypeRegister:
		return &Register{}, nil
	case TypeHeartbeat:
		return &Heartbeat{}, nil
	case TypeBatch:
		return &Batch{}, nil
	case TypeAck:
		return &Ack{}, nil
	case TypeFeedback:
		return &Feedback{}, nil
	default:
		return nil, errUnknownType(byte(t))
	}
}
