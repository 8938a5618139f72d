package hbproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

// TestV2RoundTrip: every message type survives a v2 encode and decode, a
// v2 Ack carries its frames' CRCs and no refs, and the reader's Sum is the
// CRC field of the frame it read last.
func TestV2RoundTrip(t *testing.T) {
	for _, msg := range steadyMessagesV(Version2) {
		frame, err := AppendFrameV(nil, Version2, msg)
		if err != nil {
			t.Fatal(err)
		}
		fr := NewFrameReader(bytes.NewReader(frame))
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("%v: %v", msg.Type(), err)
		}
		if !reflect.DeepEqual(sansHandles(got), sansHandles(msg)) {
			t.Fatalf("%v: decoded %+v, want %+v", msg.Type(), got, msg)
		}
		if fr.Version() != Version2 {
			t.Fatalf("%v: stream speaks v%d, want v2", msg.Type(), fr.Version())
		}
		if sum := binary.BigEndian.Uint32(frame[len(frame)-4:]); fr.Sum() != sum {
			t.Fatalf("%v: Sum() = %08x, want the frame's CRC field %08x", msg.Type(), fr.Sum(), sum)
		}
	}
	if _, err := AppendFrameV(nil, 3, &Ack{Frames: []uint32{1}}); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("encoding v3: %v, want ErrBadVersion", err)
	}
}

// TestV2AckLayout pins a v2 Ack byte for byte: the v1 header with version
// 2, the frame count as a uvarint and each frame's CRC big endian, and a
// CRC over header and payload.
func TestV2AckLayout(t *testing.T) {
	frame, err := AppendFrameV(nil, Version2, &Ack{Frames: []uint32{0x01020304, 0xa0b0c0d0}})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{'H', 'B', 2, byte(TypeAck), 0, 0, 0, 9, 2, 1, 2, 3, 4, 0xa0, 0xb0, 0xc0, 0xd0}
	want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(want))
	if !bytes.Equal(frame, want) {
		t.Fatalf("ack of two frames = % x, want % x", frame, want)
	}
}

// TestV2AckErrors: an ack of no frame, one that claims more frames than its
// payload holds, and one with no count at all decode to errors.
func TestV2AckErrors(t *testing.T) {
	frameOf := func(payload ...byte) []byte {
		b := append([]byte{'H', 'B', 2, byte(TypeAck), 0, 0, 0, byte(len(payload))}, payload...)
		return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		want  error
	}{
		{"no frame", frameOf(0), ErrEmptyAck},
		{"claims more frames than it holds", frameOf(2, 1, 2, 3, 4), ErrTruncated},
		{"claims a huge count", frameOf(0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 3, 4), ErrTruncated},
		{"no count", frameOf(), ErrTruncated},
	} {
		if _, err := NewFrameReader(bytes.NewReader(tc.frame)).Next(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := readFrame(bytes.NewReader(tc.frame)); !errors.Is(err, tc.want) {
			t.Errorf("%s: reference decoder err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestMixedVersionRejected: a stream speaks its first frame's version, or
// the one its reader expects, and a frame of the other version on it is an
// error, whichever way round.
func TestMixedVersionRejected(t *testing.T) {
	frame := func(v byte, msg Message) []byte {
		b, err := AppendFrameV(nil, v, msg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	v1 := frame(Version, &Ack{Refs: []Ref{{Src: "a", Seq: 1}}})
	v2 := frame(Version2, &Ack{Frames: []uint32{1}})
	for _, tc := range []struct {
		name   string
		expect byte
		stream []byte
	}{
		{"v2 after v1", 0, append(append([]byte(nil), v1...), v2...)},
		{"v1 after v2", 0, append(append([]byte(nil), v2...), v1...)},
		{"v1 on an expected v2", Version2, v1},
		{"v2 on an expected v1", Version, v2},
	} {
		fr := NewFrameReader(bytes.NewReader(tc.stream))
		if tc.expect != 0 {
			fr.Expect(tc.expect)
		}
		var err error
		for err == nil {
			_, err = fr.Next()
		}
		if !errors.Is(err, ErrMixedVersion) {
			t.Errorf("%s: err = %v, want ErrMixedVersion", tc.name, err)
		}
	}
}
