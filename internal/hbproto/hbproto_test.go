package hbproto

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func roundTrip(t *testing.T, msg Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, msg); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return got
}

func TestRegisterRoundTrip(t *testing.T) {
	msg := &Register{
		ID: "ue-01", Role: RoleUE, App: "WeChat",
		Period: 270 * time.Second, Expiry: 270 * time.Second,
	}
	got := roundTrip(t, msg)
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %+v, want %+v", got, msg)
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	msg := &Heartbeat{
		Src: "ue-01", Seq: 42, App: "WhatsApp",
		Origin: time.UnixMilli(1700000000123).UTC(),
		Expiry: 240 * time.Second, Pad: 66,
	}
	got := roundTrip(t, msg)
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %+v, want %+v", got, msg)
	}
	hb, ok := got.(*Heartbeat)
	if !ok {
		t.Fatalf("type = %T", got)
	}
	if want := msg.Origin.Add(msg.Expiry); !hb.Deadline().Equal(want) {
		t.Fatalf("Deadline = %v, want %v", hb.Deadline(), want)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	msg := &Batch{
		Relay: "relay-1",
		HBs: []Heartbeat{
			{Src: "a", Seq: 1, App: "QQ", Origin: time.UnixMilli(1000).UTC(), Expiry: time.Minute, Pad: 378},
			{Src: "b", Seq: 9, App: "WeChat", Origin: time.UnixMilli(2000).UTC(), Expiry: time.Second, Pad: 74},
		},
	}
	got := roundTrip(t, msg)
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %+v, want %+v", got, msg)
	}
}

func TestEmptyBatchRoundTrip(t *testing.T) {
	msg := &Batch{Relay: "r"}
	got, ok := roundTrip(t, msg).(*Batch)
	if !ok || got.Relay != "r" || len(got.HBs) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestAckAndFeedbackRoundTrip(t *testing.T) {
	ack := &Ack{Refs: []Ref{{Src: "a", Seq: 1}, {Src: "b", Seq: 2}}}
	if got := roundTrip(t, ack); !reflect.DeepEqual(got, ack) {
		t.Fatalf("ack: got %+v", got)
	}
	fb := &Feedback{Refs: []Ref{{Src: "c", Seq: 3}}}
	if got := roundTrip(t, fb); !reflect.DeepEqual(got, fb) {
		t.Fatalf("feedback: got %+v", got)
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&Register{ID: "x", Role: RoleRelay, App: "std", Period: time.Second, Expiry: time.Second},
		&Heartbeat{Src: "x", Seq: 1, App: "std", Origin: time.UnixMilli(5).UTC(), Expiry: time.Second, Pad: 54},
		&Ack{Refs: []Ref{{Src: "x", Seq: 1}}},
	}
	for _, m := range msgs {
		if err := writeFrame(&buf, m); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range msgs {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("after drain: err = %v, want EOF", err)
	}
}

func TestCorruptedChecksumDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &Heartbeat{Src: "x", Seq: 1, App: "a", Origin: time.UnixMilli(1).UTC(), Expiry: time.Second, Pad: 54}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	raw := buf.Bytes()
	raw[10] ^= 0xFF // flip a payload byte
	if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &Ack{}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	raw[0] = 'X'
	if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	raw = append([]byte(nil), buf.Bytes()...)
	raw[2] = 99
	if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &Ack{}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	raw := buf.Bytes()
	raw[3] = 200
	if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &Register{ID: "abc", Role: RoleUE, App: "x", Period: time.Second, Expiry: time.Second}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		if _, err := readFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	head := []byte{'H', 'B', Version, byte(TypeAck)}
	head = append(head, 0xFF, 0xFF, 0xFF, 0xFF) // absurd length
	if _, err := readFrame(bytes.NewReader(head)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
}

func TestWriteNilMessage(t *testing.T) {
	if err := writeFrame(io.Discard, nil); err == nil {
		t.Fatal("nil message accepted")
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	// Hand-build a frame whose payload has valid content plus junk.
	var body buffer
	(&Ack{}).encode(&body)
	body.data = append(body.data, 0xAA)
	var frame bytes.Buffer
	frame.Write([]byte{'H', 'B', Version, byte(TypeAck)})
	frame.Write([]byte{0, 0, 0, byte(len(body.data))})
	frame.Write(body.data)
	sum := crc32.ChecksumIEEE(body.data)
	frame.Write([]byte{byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)})
	if _, err := readFrame(&frame); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestQuickHeartbeatRoundTrip property-checks encode/decode over random
// heartbeats.
func TestQuickHeartbeatRoundTrip(t *testing.T) {
	prop := func(src, app string, seq uint64, originMs int64, expiryMs uint32, pad uint16) bool {
		msg := &Heartbeat{
			Src: src, Seq: seq, App: app,
			Origin: time.UnixMilli(originMs % (1 << 45)).UTC(),
			Expiry: time.Duration(expiryMs) * time.Millisecond,
			Pad:    int(pad),
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, msg); err != nil {
			return false
		}
		got, err := readFrame(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, msg)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(30))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRefsRoundTrip property-checks ack/feedback refs.
func TestQuickRefsRoundTrip(t *testing.T) {
	prop := func(srcs []string, seqs []uint64) bool {
		n := len(srcs)
		if len(seqs) < n {
			n = len(seqs)
		}
		refs := make([]Ref, n)
		for i := 0; i < n; i++ {
			refs[i] = Ref{Src: srcs[i], Seq: seqs[i]}
		}
		msg := &Feedback{Refs: refs}
		var buf bytes.Buffer
		if err := writeFrame(&buf, msg); err != nil {
			return false
		}
		got, err := readFrame(&buf)
		if err != nil {
			return false
		}
		fb, ok := got.(*Feedback)
		if !ok || len(fb.Refs) != n {
			return false
		}
		for i := range refs {
			if fb.Refs[i] != refs[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomBytesNeverPanic feeds random garbage to ReadFrame.
func TestQuickRandomBytesNeverPanic(t *testing.T) {
	prop := func(junk []byte) bool {
		_, err := readFrame(bytes.NewReader(junk))
		return err != nil // garbage must always error, never panic
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(32))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	names := map[MsgType]string{
		TypeRegister: "register", TypeHeartbeat: "heartbeat",
		TypeBatch: "batch", TypeAck: "ack", TypeFeedback: "feedback",
	}
	for typ, want := range names {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	if got := MsgType(77).String(); got != "type(77)" {
		t.Fatalf("unknown type string = %q", got)
	}
}
