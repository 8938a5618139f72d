package hbproto

// Zero-allocation codec for the live wire path.
//
// AppendFrame is the append-style encoder: it writes a frame into a
// caller-owned byte slice, so steady-state encoding reuses one buffer and
// several frames can be composed into a single Write (one syscall per
// flush instead of one per message). FrameReader is the streaming decoder
// counterpart: it reads into one buffer sized by the frames it has seen
// and decodes each frame in place there, into per-type reusable message
// values, interning strings in a per-connection cache, so steady-state
// decoding of Heartbeat/Batch/Ack/Feedback frames performs zero heap
// allocations per frame. Source IDs go through the connection owner's
// SourceTable when it has one; the reader numbers none of its own.
//
// Client-side production code sends through internal/session; tests that
// want one blocking call per frame use internal/hbproto/hbprototest.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"sync"
)

// headerSize is magic (2) + version (1) + type (1) + length (4).
const headerSize = 8

// AppendFrame appends one encoded v1 frame for msg to dst and returns the
// extended slice. On error dst is returned unextended.
func AppendFrame(dst []byte, msg Message) ([]byte, error) {
	return AppendFrameV(dst, Version, msg)
}

// AppendFrameV is AppendFrame in version v, Version or Version2.
func AppendFrameV(dst []byte, v byte, msg Message) ([]byte, error) {
	if msg == nil {
		return dst, errors.New("hbproto: nil message")
	}
	if v != Version && v != Version2 {
		return dst, ErrBadVersion
	}
	base := len(dst)
	dst = append(dst, magic[0], magic[1], v, byte(msg.Type()))
	dst = append(dst, 0, 0, 0, 0) // length back-patched below
	// The buffer escapes through the Message interface call, so a
	// stack-allocated value would cost one heap alloc per frame; pool it.
	b := bufPool.Get().(*buffer)
	b.data, b.pos, b.intern, b.v = dst, 0, nil, v
	msg.encode(b)
	dst = b.data
	b.data = nil
	bufPool.Put(b)
	payload := len(dst) - base - headerSize
	if payload > MaxFrameSize {
		return dst[:base], ErrFrameTooBig
	}
	binary.BigEndian.PutUint32(dst[base+4:base+8], uint32(payload))
	return binary.BigEndian.AppendUint32(dst, checksum(v, dst[base:])), nil
}

// checksum is a frame's CRC in version v: over the payload in v1, over the
// header and payload in v2. frame runs from the header to the payload's end.
func checksum(v byte, frame []byte) uint32 {
	if v == Version {
		frame = frame[headerSize:]
	}
	return crc32.ChecksumIEEE(frame)
}

// bufPool recycles the varint codec state shared by encode and decode.
var bufPool = sync.Pool{New: func() any { return new(buffer) }}

// Handle names a source ID for the owner of the FrameReader that decoded
// it: a reader over its owner's SourceTable stamps the table's handle next
// to the string on every Heartbeat and Ref it returns, so an owner that
// keeps per-client state can index it by handle instead of hashing the
// string again. Zero means "no handle": a reader with no table, or a source
// the table does not know. A sender may also set a heartbeat's Handle to a
// key of its own, which an uplink's v2 acks hand back on its Ref.
type Handle uint32

// SourceTable is a connection owner's own ID → handle table: a reader over
// one interns no source. Source returns b's handle, 0 if unknown, and b as
// a string the reader stamps as is, known or not — or "", and the reader
// copies b; after is its handle for the reader's previous source, so the
// table can try what usually follows before it hashes. It must not keep b.
type SourceTable interface {
	Source(after Handle, b []byte) (string, Handle)
}

// internTable is the one place a connection hashes the strings it decodes:
// it maps string bytes to a canonical heap string, or hands source IDs to
// its owner's SourceTable. Strings are found in two recent slots and, past
// two, a map; no lookup allocates on the hit path, so a connection that
// sees a stable set of device/app IDs decodes strings for free. The table
// is bounded: once full it stops inserting but keeps serving hits, so a
// hostile peer cannot grow it without bound.
type internTable struct {
	table  SourceTable       // the owner's sources; nil: sources are strings like any other
	prev   Handle            // table's handle for the last source decoded
	other  map[string]string // every interned string, once there are three (see get)
	recent [2]string         // the last two distinct strings, latest first
	max    int               // bound on the strings held
}

// defaultInternCap bounds distinct strings cached per connection. A
// production reader interns a handful: a UE link's its own ID and app, a
// server connection's apps and relay IDs, an uplink's none, since its v2
// acks carry no ID. A test client of a trunk-sized v1 link stops at a full
// table.
const defaultInternCap = 128 << 10

func newInternTable(max int, table SourceTable) *internTable {
	if max <= 0 {
		max = defaultInternCap
	}
	return &internTable{table: table, max: max}
}

// held counts the strings the table holds: the map's, or until there is
// one, those in recent.
func (t *internTable) held() int {
	if t.other != nil {
		return len(t.other)
	}
	n := 0
	for _, s := range t.recent {
		if s != "" {
			n++
		}
	}
	return n
}

// get interns a string. The two most recent distinct strings are checked
// first; until a third distinct string arrives they are all the table
// holds, and the map is built then.
func (t *internTable) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if t.recent[0] == string(b) {
		return t.recent[0]
	}
	if t.recent[1] == string(b) {
		t.recent[0], t.recent[1] = t.recent[1], t.recent[0]
		return t.recent[0]
	}
	s, ok := t.other[string(b)] // no alloc: compiler-optimized map lookup
	if !ok {
		s = string(b)
		switch {
		case t.held() >= t.max:
			if t.other == nil {
				return s // recent is the table: keep what it holds
			}
		case t.other != nil:
			t.other[s] = s
		case t.recent[1] != "":
			t.other = map[string]string{t.recent[0]: t.recent[0], t.recent[1]: t.recent[1], s: s}
		}
	}
	t.recent[0], t.recent[1] = s, t.recent[0]
	return s
}

// src resolves a source ID through the owner's table, telling it the
// previous source's handle. Without a table a source is interned like any
// other string, with handle 0.
func (t *internTable) src(b []byte) (string, Handle) {
	if t.table == nil {
		return t.get(b), 0
	}
	s, h := t.table.Source(t.prev, b)
	if t.prev = h; s == "" {
		s = string(b)
	}
	return s, h
}

// FrameReader reads frames from a stream with zero steady-state
// allocations per frame. It reads into one buffer of its own and decodes
// each frame in place there. The buffer starts at readBufSize and grows
// only when a frame does not fit, doubling until it does, so it never
// exceeds twice the largest frame read. Messages returned by Next share
// per-type reusable values and slices owned by the reader: they are valid
// only until the next call to Next. Strings are interned per reader and
// safe to retain.
type FrameReader struct {
	r        io.Reader
	buf      []byte // buf[off:end] is read but not yet consumed
	off, end int
	intern   *internTable
	v        byte   // the version the stream speaks; 0 until its first frame
	sum      uint32 // the last frame's CRC field

	reg   Register
	hb    Heartbeat
	batch Batch
	ack   Ack
	fb    Feedback
}

// readBufSize is a FrameReader's initial buffer: it holds a UE link's
// largest frame, so a UE link reads each frame with one Read and its
// buffer never grows.
const readBufSize = 64

// NewFrameReader wraps r for streaming decode. The reader buffers r
// itself, asking each Read for all the room its buffer has, so wrap a
// connection directly: a bufio.Reader under it would only copy the bytes
// once more.
func NewFrameReader(r io.Reader) *FrameReader { return NewTableReader(r, nil) }

// NewTableReader is NewFrameReader resolving sources through table, if not
// nil, instead of interning them.
func NewTableReader(r io.Reader, table SourceTable) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, readBufSize), intern: newInternTable(0, table)}
}

// Version returns the version the stream speaks: its first frame's, or the
// one Expect set; 0 before either.
func (fr *FrameReader) Version() byte { return fr.v }

// Expect makes the reader take only frames of version v, as if the stream's
// first frame had been one: a client reads its peer's answers in the
// version it writes.
func (fr *FrameReader) Expect(v byte) { fr.v = v }

// Sum returns the CRC field of the last frame Next read whole: in v2, the
// frame's tag in an Ack (see the package comment).
func (fr *FrameReader) Sum() uint32 { return fr.sum }

// Buffered reports how many bytes beyond the current frame are already
// read — i.e. whether the peer pipelined more frames. Ack aggregators use
// this to defer flushing while more input is pending.
func (fr *FrameReader) Buffered() int { return fr.end - fr.off }

// Next reads and decodes one frame. The returned Message is reused on the
// following call; callers must copy anything they retain (interned
// strings are stable and safe to keep). A stream that ends at a frame
// boundary returns io.EOF, one that ends inside a frame
// io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() (Message, error) {
	body, typ, err := fr.readPayload()
	if err != nil {
		return nil, err
	}
	var msg Message
	switch typ {
	case TypeRegister:
		msg = &fr.reg
	case TypeHeartbeat:
		msg = &fr.hb
	case TypeBatch:
		msg = &fr.batch
	case TypeAck:
		msg = &fr.ack
	case TypeFeedback:
		msg = &fr.fb
	default:
		return nil, errUnknownType(byte(typ))
	}
	if err := decodeBody(msg, body, fr.v, fr.intern); err != nil {
		return nil, err
	}
	return msg, nil
}

// readPayload reads one frame — header, payload and CRC — into the
// buffer, validates it, and returns the payload bytes and wire type. The
// first frame's version becomes the stream's, unless Expect set one. A
// frame read whole is consumed, whether or not it decodes.
func (fr *FrameReader) readPayload() ([]byte, MsgType, error) {
	if err := fr.fill(headerSize); err != nil {
		return nil, 0, err
	}
	head := fr.buf[fr.off : fr.off+headerSize]
	if head[0] != magic[0] || head[1] != magic[1] {
		return nil, 0, ErrBadMagic
	}
	switch v := head[2]; {
	case v != Version && v != Version2:
		return nil, 0, errBadVersion(v)
	case fr.v == 0:
		fr.v = v
	case v != fr.v:
		return nil, 0, errMixedVersion(v, fr.v)
	}
	length := binary.BigEndian.Uint32(head[4:8])
	if length > MaxFrameSize {
		return nil, 0, ErrFrameTooBig
	}
	typ, need := MsgType(head[3]), headerSize+int(length)+4
	if err := fr.fill(need); err != nil {
		return nil, 0, err
	}
	frame := fr.buf[fr.off : fr.off+need]
	fr.off += need
	fr.sum = binary.BigEndian.Uint32(frame[headerSize+length:])
	if checksum(fr.v, frame[:headerSize+length]) != fr.sum {
		return nil, 0, ErrBadChecksum
	}
	return frame[headerSize : headerSize+length], typ, nil
}

// fill reads until the buffer holds need unconsumed bytes. Unconsumed
// bytes move to the front first and each Read asks for all the room left,
// so pipelined frames arrive in one call. A frame that does not fit
// doubles the buffer until it does.
func (fr *FrameReader) fill(need int) error {
	if fr.end-fr.off >= need {
		return nil
	}
	buf := fr.buf
	if size := len(buf); need > size {
		for size < need {
			size *= 2
		}
		buf = make([]byte, size)
	}
	fr.end = copy(buf, fr.buf[fr.off:fr.end])
	fr.buf, fr.off = buf, 0
	for fr.end < need {
		n, err := fr.r.Read(fr.buf[fr.end:])
		if fr.end += n; err == nil || fr.end >= need {
			continue
		}
		if err == io.EOF && fr.end > 0 {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// decodeBody decodes a validated payload of version v into msg, interning
// strings when a table is supplied, and rejects trailing bytes.
func decodeBody(msg Message, body []byte, v byte, intern *internTable) error {
	b := bufPool.Get().(*buffer)
	b.data, b.pos, b.intern, b.v = body, 0, intern, v
	err := msg.decode(b)
	trailing := len(b.data) - b.pos
	b.data, b.intern = nil, nil
	bufPool.Put(b)
	if err != nil {
		return err
	}
	if trailing != 0 {
		return errTrailing(trailing)
	}
	return nil
}
