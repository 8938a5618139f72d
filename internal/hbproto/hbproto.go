// Package hbproto defines the wire protocol of the real (non-simulated)
// heartbeat relaying stack: a length-prefixed binary framing with CRC32
// integrity, carrying registrations, heartbeats, relay batches, server
// acknowledgements and relay→UE feedback.
//
// Frame layout:
//
//	magic   [2]byte  "HB"
//	version byte     1 or 2
//	type    byte     message type
//	length  uint32   payload length (big endian)
//	payload [length]byte
//	crc32   uint32   IEEE CRC (big endian): v1 over the payload, v2 over
//	                 the header (magic, version, type, length) and payload
//
// Payload fields are encoded with uvarints and length-prefixed strings.
//
// Version 2 is the aggregated links' version: the Batch frames a relay or
// load-generator trunk writes to a presence server, and the server's acks.
// Besides putting the header under the CRC, it changes one payload: a v2
// Ack acknowledges whole frames, where a v1 Ack lists each heartbeat by
// (source ID, seq). It is a count n and the n CRCs of the
// heartbeat-carrying frames (Heartbeat, or a Batch of at least one) it
// accepts, every heartbeat in them, in the order they arrived:
//
//	n     uvarint
//	crc32 [n]uint32  each frame's own CRC field (big endian)
//
// The sender keeps what it wrote in each frame and matches the CRCs in
// write order, so a frame its peer never got (a write a middlebox
// swallowed on a live connection) is skipped, not settled by the ack of
// the frame after it. Every other payload is the same in both versions.
//
// A connection speaks the version of its first frame: its peer answers in
// that version, and a frame of the other one on it is an error
// (ErrMixedVersion). A reader accepts either. So servers upgrade first: a
// v2 sender needs a v2-aware server, while v1 peers — UEs, and senders
// older than v2 — keep working unchanged against it.
package hbproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Protocol constants.
const (
	// Version is v1, the version AppendFrame writes.
	Version = 1
	// Version2 is the aggregated links' version, with acks by frame (see
	// the package comment).
	Version2 = 2
	// MaxFrameSize bounds payload length; heartbeats are tiny, so
	// anything bigger indicates corruption or abuse.
	MaxFrameSize = 1 << 20
)

var magic = [2]byte{'H', 'B'}

// Protocol errors.
var (
	ErrBadMagic    = errors.New("hbproto: bad magic")
	ErrBadVersion  = errors.New("hbproto: unsupported version")
	ErrBadChecksum = errors.New("hbproto: checksum mismatch")
	ErrFrameTooBig = errors.New("hbproto: frame exceeds size limit")
	ErrUnknownType = errors.New("hbproto: unknown message type")
	ErrTruncated   = errors.New("hbproto: truncated payload")
	// ErrMixedVersion reports a frame whose version is not the one its
	// connection speaks.
	ErrMixedVersion = errors.New("hbproto: frame version differs from the connection's")
	// ErrEmptyAck reports a v2 Ack that acknowledges no frame.
	ErrEmptyAck = errors.New("hbproto: v2 ack of no frame")
	// ErrTrailingBytes reports a frame whose payload decoded cleanly but
	// left unconsumed bytes — a framing bug or corruption that survived
	// the checksum.
	ErrTrailingBytes = errors.New("hbproto: trailing bytes in payload")
)

func errTrailing(n int) error {
	return fmt.Errorf("%w: %d", ErrTrailingBytes, n)
}

func errBadVersion(v byte) error {
	return fmt.Errorf("%w: %d", ErrBadVersion, v)
}

// errMixedVersion is never inlined: building it would take room in the
// frame every connection's reader parks with (see FrameReader.readPayload).
//
//go:noinline
func errMixedVersion(v, stream byte) error {
	return fmt.Errorf("%w: v%d on a v%d stream", ErrMixedVersion, v, stream)
}

func errUnknownType(t byte) error {
	return fmt.Errorf("%w: %d", ErrUnknownType, t)
}

// MsgType identifies a protocol message.
type MsgType byte

// Message types.
const (
	TypeRegister  MsgType = iota + 1 // device → server/relay: identity
	TypeHeartbeat                    // UE → relay or device → server
	TypeBatch                        // relay → server: aggregated heartbeats
	TypeAck                          // server → sender: heartbeats accepted
	TypeFeedback                     // relay → UE: heartbeats delivered
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case TypeRegister:
		return "register"
	case TypeHeartbeat:
		return "heartbeat"
	case TypeBatch:
		return "batch"
	case TypeAck:
		return "ack"
	case TypeFeedback:
		return "feedback"
	default:
		return fmt.Sprintf("type(%d)", byte(t))
	}
}

// Message is one decoded protocol message.
type Message interface {
	// Type returns the wire type tag.
	Type() MsgType
	encode(b *buffer)
	decode(b *buffer) error
}

// Role mirrors the framework roles on the wire.
type Role byte

// Wire roles.
const (
	RoleUE    Role = 1
	RoleRelay Role = 2
)

// Register announces a device to a server or relay.
type Register struct {
	ID     string
	Role   Role
	App    string
	Period time.Duration
	Expiry time.Duration
}

// Type implements Message.
func (*Register) Type() MsgType { return TypeRegister }

func (m *Register) encode(b *buffer) {
	b.str(m.ID)
	b.u64(uint64(m.Role))
	b.str(m.App)
	b.dur(m.Period)
	b.dur(m.Expiry)
}

func (m *Register) decode(b *buffer) (err error) {
	if m.ID, err = b.rstr(); err != nil {
		return err
	}
	role, err := b.ru64()
	if err != nil {
		return err
	}
	m.Role = Role(role)
	if m.App, err = b.rstr(); err != nil {
		return err
	}
	if m.Period, err = b.rdur(); err != nil {
		return err
	}
	m.Expiry, err = b.rdur()
	return err
}

// Heartbeat is one keep-alive on the wire. Pad declares the app's nominal
// heartbeat size so relays and servers can account wire bytes without
// shipping actual padding. Handle is not on the wire: the FrameReader that
// decoded the message sets it to its SourceTable's handle for Src, 0 when
// it has none (see Handle), and a sender may set it to a key of its own,
// which an uplink's v2 acks hand back on the heartbeat's Ref.
type Heartbeat struct {
	Src    string
	Seq    uint64
	App    string
	Origin time.Time
	Expiry time.Duration
	Pad    int
	Handle Handle
}

// Type implements Message.
func (*Heartbeat) Type() MsgType { return TypeHeartbeat }

// Deadline returns the instant by which the heartbeat must reach the
// server.
func (m *Heartbeat) Deadline() time.Time { return m.Origin.Add(m.Expiry) }

func (m *Heartbeat) encode(b *buffer) {
	b.str(m.Src)
	b.u64(m.Seq)
	b.str(m.App)
	b.i64(m.Origin.UnixMilli())
	b.dur(m.Expiry)
	b.u64(uint64(m.Pad))
}

func (m *Heartbeat) decode(b *buffer) (err error) {
	if m.Src, m.Handle, err = b.rsrc(); err != nil {
		return err
	}
	if m.Seq, err = b.ru64(); err != nil {
		return err
	}
	if m.App, err = b.rstr(); err != nil {
		return err
	}
	ms, err := b.ri64()
	if err != nil {
		return err
	}
	m.Origin = time.UnixMilli(ms).UTC()
	if m.Expiry, err = b.rdur(); err != nil {
		return err
	}
	pad, err := b.ru64()
	if err != nil {
		return err
	}
	if pad > MaxFrameSize {
		return fmt.Errorf("%w: pad %d", ErrFrameTooBig, pad)
	}
	m.Pad = int(pad)
	return nil
}

// Batch carries aggregated heartbeats from a relay to the server.
type Batch struct {
	Relay string
	HBs   []Heartbeat
}

// Type implements Message.
func (*Batch) Type() MsgType { return TypeBatch }

func (m *Batch) encode(b *buffer) {
	b.str(m.Relay)
	b.u64(uint64(len(m.HBs)))
	for i := range m.HBs {
		m.HBs[i].encode(b)
	}
}

func (m *Batch) decode(b *buffer) (err error) {
	if m.Relay, err = b.rstr(); err != nil {
		return err
	}
	n, err := b.ru64()
	if err != nil {
		return err
	}
	if n > MaxFrameSize/8 {
		return fmt.Errorf("%w: batch of %d", ErrFrameTooBig, n)
	}
	// Reuse slice capacity on decode-into (FrameReader): a fresh Batch
	// has a nil slice and allocates exactly as before.
	if m.HBs != nil && uint64(cap(m.HBs)) >= n {
		m.HBs = m.HBs[:n]
	} else {
		m.HBs = make([]Heartbeat, n)
	}
	for i := range m.HBs {
		if err := m.HBs[i].decode(b); err != nil {
			return err
		}
	}
	return nil
}

// Ref identifies one heartbeat in an acknowledgement or feedback message.
// Like Heartbeat.Handle, Handle is set on decode (or carried over from the
// heartbeat a v2 ack settles) and never encoded, so a Ref is not a map
// key: two refs to one heartbeat may differ in it.
type Ref struct {
	Src    string
	Seq    uint64
	Handle Handle
}

// Ack confirms heartbeats accepted by the server. A v1 Ack lists them in
// Refs; a v2 Ack lists the CRCs of the heartbeat-carrying frames they came
// in, in Frames, and the other field is nil (see the package comment).
type Ack struct {
	Refs   []Ref
	Frames []uint32
}

// Type implements Message.
func (*Ack) Type() MsgType { return TypeAck }

func (m *Ack) encode(b *buffer) {
	if b.v == Version2 {
		encodeSums(b, m.Frames)
		return
	}
	encodeRefs(b, m.Refs)
}

func (m *Ack) decode(b *buffer) error {
	if b.v == Version2 {
		m.Refs = nil
		return decodeSums(b, &m.Frames)
	}
	m.Frames = nil
	return decodeRefs(b, &m.Refs)
}

// encodeSums writes a v2 Ack's payload: the count, then each CRC. Like
// decodeSums it is never inlined, so that Ack's own frame, which every
// server connection and UE link runs through in v1, stays small (see
// DESIGN.md, "The goroutine stack budget").
//
//go:noinline
func encodeSums(b *buffer, sums []uint32) {
	b.u64(uint64(len(sums)))
	for _, sum := range sums {
		b.data = binary.BigEndian.AppendUint32(b.data, sum)
	}
}

// decodeSums reads a v2 Ack's payload into *out, reusing its capacity.
//
//go:noinline
func decodeSums(b *buffer, out *[]uint32) error {
	n, err := b.ru64()
	if err != nil {
		return err
	}
	if n == 0 {
		return ErrEmptyAck
	}
	if n > uint64(len(b.data)-b.pos)/4 {
		return ErrTruncated
	}
	sums := (*out)[:0]
	for range n {
		sums = append(sums, binary.BigEndian.Uint32(b.data[b.pos:]))
		b.pos += 4
	}
	*out = sums
	return nil
}

// Feedback notifies a UE that its forwarded heartbeats were delivered.
type Feedback struct {
	Refs []Ref
}

// Type implements Message.
func (*Feedback) Type() MsgType { return TypeFeedback }

func (m *Feedback) encode(b *buffer)       { encodeRefs(b, m.Refs) }
func (m *Feedback) decode(b *buffer) error { return decodeRefs(b, &m.Refs) }

func encodeRefs(b *buffer, refs []Ref) {
	b.u64(uint64(len(refs)))
	for _, r := range refs {
		b.str(r.Src)
		b.u64(r.Seq)
	}
}

func decodeRefs(b *buffer, out *[]Ref) error {
	n, err := b.ru64()
	if err != nil {
		return err
	}
	if n > MaxFrameSize/4 {
		return fmt.Errorf("%w: %d refs", ErrFrameTooBig, n)
	}
	refs := *out
	if refs != nil && uint64(cap(refs)) >= n {
		refs = refs[:n]
	} else {
		refs = make([]Ref, n)
	}
	for i := range refs {
		if refs[i].Src, refs[i].Handle, err = b.rsrc(); err != nil {
			return err
		}
		if refs[i].Seq, err = b.ru64(); err != nil {
			return err
		}
	}
	*out = refs
	return nil
}

// buffer is a simple append/consume byte buffer with varint helpers.
// When intern is set, decoded strings are canonicalized through it so
// steady-state decoding allocates nothing per frame. v is the frame's
// version, for the payloads that differ between versions.
type buffer struct {
	data   []byte
	pos    int
	intern *internTable
	v      byte
}

func (b *buffer) u64(v uint64) { b.data = binary.AppendUvarint(b.data, v) }

func (b *buffer) i64(v int64) { b.data = binary.AppendVarint(b.data, v) }

func (b *buffer) dur(d time.Duration) { b.i64(int64(d)) }

func (b *buffer) str(s string) {
	b.u64(uint64(len(s)))
	b.data = append(b.data, s...)
}

func (b *buffer) ru64() (uint64, error) {
	v, n := binary.Uvarint(b.data[b.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	b.pos += n
	return v, nil
}

func (b *buffer) ri64() (int64, error) {
	v, n := binary.Varint(b.data[b.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	b.pos += n
	return v, nil
}

func (b *buffer) rdur() (time.Duration, error) {
	v, err := b.ri64()
	return time.Duration(v), err
}

// rbytes consumes one length-prefixed string's bytes.
func (b *buffer) rbytes() ([]byte, error) {
	n, err := b.ru64()
	if err != nil {
		return nil, err
	}
	if n > math.MaxInt32 || b.pos+int(n) > len(b.data) {
		return nil, ErrTruncated
	}
	raw := b.data[b.pos : b.pos+int(n)]
	b.pos += int(n)
	return raw, nil
}

func (b *buffer) rstr() (string, error) {
	raw, err := b.rbytes()
	if err != nil {
		return "", err
	}
	if b.intern != nil {
		return b.intern.get(raw), nil
	}
	return string(raw), nil
}

// rsrc reads a source ID: like rstr, plus its owner's handle for it.
func (b *buffer) rsrc() (string, Handle, error) {
	raw, err := b.rbytes()
	if err != nil {
		return "", 0, err
	}
	if b.intern != nil {
		s, h := b.intern.src(raw)
		return s, h, nil
	}
	return string(raw), 0, nil
}
