package rec

// The wire codec: a 5-byte preamble (magic + version), a varint payload —
// header fields, client table, fault windows, delta-encoded events — and a
// big-endian CRC32 trailer over the payload. Delta encoding matters: event
// timestamps are monotone, so consecutive heartbeats a few milliseconds
// apart cost two or three bytes instead of eight, and a million-event
// timeline stays in the tens of megabytes uncompressed.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"
)

// Codec constants.
const (
	// Version is the current trace format revision.
	Version = 1
	// maxString bounds every length-prefixed string in the file.
	maxString = 4096
	// maxClients bounds the client table.
	maxClients = 1 << 22
	// maxEvents bounds the event stream.
	maxEvents = 1 << 28
	// maxFaults bounds the fault-window table.
	maxFaults = 1 << 16
)

var recMagic = [4]byte{'D', '2', 'D', 'R'}

// Codec errors.
var (
	ErrBadMagic    = errors.New("rec: bad magic")
	ErrBadVersion  = errors.New("rec: unsupported version")
	ErrBadChecksum = errors.New("rec: checksum mismatch")
	ErrTruncated   = errors.New("rec: truncated trace")
	ErrTooLarge    = errors.New("rec: length field exceeds limit")

	errOverlongVarint = errors.New("rec: varint longer than its value needs")
)

// Append encodes the timeline onto buf and returns the extended slice:
// preamble, payload, CRC32 trailer.
func (tl *Timeline) Append(buf []byte) []byte {
	buf = append(buf, recMagic[:]...)
	buf = append(buf, Version)
	start := len(buf)
	buf = binary.AppendVarint(buf, tl.Seed)
	buf = binary.AppendVarint(buf, tl.BaseUnixNano)
	buf = binary.AppendUvarint(buf, uint64(tl.RelayPeriod))
	buf = binary.AppendUvarint(buf, uint64(tl.RelayCapacity))

	buf = binary.AppendUvarint(buf, uint64(len(tl.Clients)))
	for _, c := range tl.Clients {
		buf = appendString(buf, c.ID)
		buf = appendString(buf, c.App)
		buf = binary.AppendUvarint(buf, uint64(c.Period))
		buf = binary.AppendUvarint(buf, uint64(c.Expiry))
		buf = binary.AppendUvarint(buf, uint64(c.Pad))
		buf = append(buf, byte(c.Path))
		buf = binary.AppendUvarint(buf, uint64(c.Relay+1))
	}

	buf = binary.AppendUvarint(buf, uint64(len(tl.Faults)))
	var prevFrom time.Duration
	for _, w := range tl.Faults {
		buf = appendString(buf, w.Kind)
		buf = binary.AppendUvarint(buf, uint64(w.From-prevFrom))
		prevFrom = w.From
		// 0 = open-ended; otherwise duration+1 so zero-length windows
		// survive the round trip.
		if w.To == 0 {
			buf = binary.AppendUvarint(buf, 0)
		} else {
			buf = binary.AppendUvarint(buf, uint64(w.To-w.From)+1)
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(tl.Events)))
	var prevAt time.Duration
	for _, e := range tl.Events {
		buf = append(buf, byte(e.Kind))
		buf = binary.AppendUvarint(buf, uint64(e.At-prevAt))
		prevAt = e.At
		buf = binary.AppendUvarint(buf, uint64(e.Client))
		buf = binary.AppendUvarint(buf, e.Seq)
	}

	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// Encode writes the trace to w.
func (tl *Timeline) Encode(w io.Writer) error {
	if err := tl.Validate(); err != nil {
		return err
	}
	_, err := w.Write(tl.Append(nil))
	return err
}

// WriteFile encodes the trace into path.
func (tl *Timeline) WriteFile(path string) error {
	if err := tl.Validate(); err != nil {
		return err
	}
	return os.WriteFile(path, tl.Append(nil), 0o644)
}

// Decode parses one trace from data.
func Decode(data []byte) (*Timeline, error) {
	if len(data) < len(recMagic)+1+4 {
		return nil, ErrTruncated
	}
	if [4]byte(data[:4]) != recMagic {
		return nil, ErrBadMagic
	}
	if data[4] != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, data[4])
	}
	payload, trailer := data[5:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(trailer) {
		return nil, ErrBadChecksum
	}
	d := &decoder{data: payload}
	tl := &Timeline{
		Seed:          d.varint(),
		BaseUnixNano:  d.varint(),
		RelayPeriod:   time.Duration(d.uvarint()),
		RelayCapacity: int(d.bounded(maxClients, "relay capacity")),
	}

	nclients := d.bounded(maxClients, "client count")
	if d.err == nil {
		tl.Clients = make([]Client, 0, min(nclients, 4096))
	}
	for i := uint64(0); i < nclients && d.err == nil; i++ {
		c := Client{
			ID:     d.str(),
			App:    d.str(),
			Period: time.Duration(d.uvarint()),
			Expiry: time.Duration(d.uvarint()),
			Pad:    int(d.bounded(1<<30, "pad")),
			Path:   Path(d.byte()),
			Relay:  int(d.bounded(maxClients, "relay index")) - 1,
		}
		tl.Clients = append(tl.Clients, c)
	}

	nfaults := d.bounded(maxFaults, "fault count")
	var prevFrom time.Duration
	for i := uint64(0); i < nfaults && d.err == nil; i++ {
		w := FaultWindow{Kind: d.str()}
		w.From = prevFrom + time.Duration(d.uvarint())
		prevFrom = w.From
		if dur := d.uvarint(); dur > 0 {
			w.To = w.From + time.Duration(dur-1)
		}
		tl.Faults = append(tl.Faults, w)
	}

	nevents := d.bounded(maxEvents, "event count")
	if d.err == nil {
		tl.Events = make([]Event, 0, min(nevents, 1<<16))
	}
	var prevAt time.Duration
	for i := uint64(0); i < nevents && d.err == nil; i++ {
		e := Event{Kind: EventKind(d.byte())}
		e.At = prevAt + time.Duration(d.uvarint())
		prevAt = e.At
		e.Client = int(d.bounded(maxClients, "event client"))
		e.Seq = d.uvarint()
		tl.Events = append(tl.Events, e)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("rec: %d trailing payload bytes", len(d.data)-d.pos)
	}
	if err := tl.Validate(); err != nil {
		return nil, err
	}
	return tl, nil
}

// ReadFile loads and decodes the trace at path.
func ReadFile(path string) (*Timeline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder consumes the payload with sticky-error semantics so the decode
// loops stay flat.
type decoder struct {
	data []byte
	pos  int
	err  error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if !d.skipVarint(n) {
		return 0
	}
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if !d.skipVarint(n) {
		return 0
	}
	return v
}

// skipVarint moves past a varint of n bytes, as binary.Uvarint reports n.
// A last byte of 0 after continuation bytes pads a shorter encoding of the
// same value, which Append never writes, so a trace that has one is not
// canonical and is rejected.
func (d *decoder) skipVarint(n int) bool {
	if n <= 0 {
		d.err = ErrTruncated
		return false
	}
	if n > 1 && d.data[d.pos+n-1] == 0 {
		d.err = errOverlongVarint
		return false
	}
	d.pos += n
	return true
}

// bounded reads a uvarint and rejects values above limit — the guard
// against length-field abuse (a forged count must not drive a huge
// allocation).
func (d *decoder) bounded(limit uint64, what string) uint64 {
	v := d.uvarint()
	if d.err == nil && v > limit {
		d.err = fmt.Errorf("%w: %s %d > %d", ErrTooLarge, what, v, limit)
		return 0
	}
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.err = ErrTruncated
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *decoder) str() string {
	n := d.bounded(maxString, "string length")
	if d.err != nil {
		return ""
	}
	if d.pos+int(n) > len(d.data) {
		d.err = ErrTruncated
		return ""
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}
