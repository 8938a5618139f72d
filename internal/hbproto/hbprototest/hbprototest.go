// Package hbprototest is hbproto for tests: write one frame, read one
// frame, each a single blocking call on a plain io.Writer / io.Reader.
// Production code sends through internal/session or composes
// hbproto.AppendFrame output itself, and reads with hbproto.FrameReader.
package hbprototest

import (
	"bytes"
	"encoding/binary"
	"io"

	"d2dhb/internal/hbproto"
)

// headerSize is a frame header's magic (2), version (1), type (1) and
// payload length (4).
const headerSize = 8

// WriteFrame encodes msg as a v1 frame and writes it as one Write.
func WriteFrame(w io.Writer, msg hbproto.Message) error {
	return WriteFrameV(w, hbproto.Version, msg)
}

// WriteFrameV is WriteFrame in version v.
func WriteFrameV(w io.Writer, v byte, msg hbproto.Message) error {
	frame, err := hbproto.AppendFrameV(nil, v, msg)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// ReadFrame reads one frame of either version from r and decodes it into a
// fresh Message. It reads no byte past the frame, so calls can alternate
// with other readers of r. A handle means something only within the reader
// that issued it, so every Handle in the result is 0.
func ReadFrame(r io.Reader) (hbproto.Message, error) {
	var head [headerSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	length := binary.BigEndian.Uint32(head[4:])
	if length > hbproto.MaxFrameSize {
		return nil, hbproto.ErrFrameTooBig
	}
	frame := make([]byte, headerSize+length+4) // header, payload and CRC
	copy(frame, head[:])
	if _, err := io.ReadFull(r, frame[headerSize:]); err != nil {
		return nil, err
	}
	msg, err := hbproto.NewFrameReader(bytes.NewReader(frame)).Next()
	switch m := msg.(type) {
	case *hbproto.Heartbeat:
		m.Handle = 0
	case *hbproto.Batch:
		for i := range m.HBs {
			m.HBs[i].Handle = 0
		}
	case *hbproto.Ack:
		clearHandles(m.Refs)
	case *hbproto.Feedback:
		clearHandles(m.Refs)
	}
	return msg, err
}

func clearHandles(refs []hbproto.Ref) {
	for i := range refs {
		refs[i].Handle = 0
	}
}
