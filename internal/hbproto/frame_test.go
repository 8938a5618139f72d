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

// readFrame reads and decodes one message, allocating a fresh Message per
// call.
func readFrame(r io.Reader) (Message, error) {
	var head [headerSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	if head[0] != magic[0] || head[1] != magic[1] {
		return nil, ErrBadMagic
	}
	if head[2] != Version {
		return nil, errBadVersion(head[2])
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
	if crc32.ChecksumIEEE(body) != sum {
		return nil, ErrBadChecksum
	}
	msg, err := newMessage(MsgType(head[3]))
	if err != nil {
		return nil, err
	}
	if err := decodeBody(msg, body, nil); err != nil {
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
