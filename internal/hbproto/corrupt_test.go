package hbproto

// Deterministic counterpart to FuzzReadFrame: walks the full corruption
// space faultnet injects during chaos runs — every truncation point and
// every single-bit flip of every valid frame — in ordinary `go test`, so
// decode robustness is checked on every CI run, not only under -fuzz.

import (
	"bytes"
	"testing"
	"time"
)

// corpusFrames returns one valid encoded v1 frame per message type.
func corpusFrames(t testing.TB) [][]byte { return corpusFramesV(t, Version) }

// corpusFramesV returns one valid encoded frame per message type in
// version v: a v2 Ack lists two frames' CRCs.
func corpusFramesV(t testing.TB, v byte) [][]byte {
	t.Helper()
	ack := &Ack{Refs: []Ref{{Src: "a", Seq: 1}, {Src: "b", Seq: 2}}}
	if v == Version2 {
		ack = &Ack{Frames: []uint32{0x01020304, 0xfffffffe}}
	}
	msgs := []Message{
		&Register{ID: "relay-9", Role: RoleRelay, App: "WeChat", Period: 270 * time.Second, Expiry: 270 * time.Second},
		&Heartbeat{Src: "ue-1", Seq: 7, App: "QQ", Origin: time.UnixMilli(1500000000000).UTC(), Expiry: time.Minute, Pad: 378},
		&Batch{Relay: "r", HBs: []Heartbeat{
			{Src: "a", Seq: 1, App: "x", Origin: time.UnixMilli(1).UTC(), Expiry: time.Second, Pad: 54},
			{Src: "b", Seq: 2, App: "y", Origin: time.UnixMilli(2).UTC(), Expiry: time.Second, Pad: 54},
		}},
		ack,
		&Feedback{Refs: []Ref{{Src: "c", Seq: 3}}},
	}
	frames := make([][]byte, 0, len(msgs))
	for _, m := range msgs {
		frame, err := AppendFrameV(nil, v, m)
		if err != nil {
			t.Fatalf("encode %v: %v", m.Type(), err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// bothVersions is every frame of corpusFramesV in v1 and in v2.
func bothVersions(t testing.TB) [][]byte {
	return append(corpusFrames(t), corpusFramesV(t, Version2)...)
}

// decodeNoPanic runs ReadFrame and converts any panic into a test failure.
func decodeNoPanic(t *testing.T, data []byte) (Message, error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("ReadFrame panicked on %d-byte input %x: %v", len(data), data, r)
		}
	}()
	return readFrame(bytes.NewReader(data))
}

// TestReadFrameEveryTruncation feeds every prefix of every valid frame to
// the decoder: all must return an error (no prefix of a checksummed frame
// is itself valid) and none may panic.
func TestReadFrameEveryTruncation(t *testing.T) {
	for _, frame := range bothVersions(t) {
		for cut := 0; cut < len(frame); cut++ {
			if _, err := decodeNoPanic(t, frame[:cut]); err == nil {
				t.Fatalf("truncation at %d/%d accepted", cut, len(frame))
			}
		}
	}
}

// TestReadFrameEveryBitFlip flips each bit of each valid frame in turn.
// The decoder must never panic; any frame it does accept must round-trip
// cleanly (a flip inside the pad/padding space can survive the checksum
// only if the checksum bytes themselves were flipped to match — with
// CRC32 over the payload a single flip is always caught, so acceptance
// here means the flip hit a byte outside the checksummed region).
func TestReadFrameEveryBitFlip(t *testing.T) {
	for fi, frame := range bothVersions(t) {
		for i := range frame {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), frame...)
				mut[i] ^= 1 << uint(bit)
				msg, err := decodeNoPanic(t, mut)
				if err != nil {
					continue // rejected: fine
				}
				again, err := AppendFrameV(nil, mut[2], msg)
				if err != nil {
					t.Fatalf("frame %d bit %d.%d: accepted but re-encode failed: %v", fi, i, bit, err)
				}
				if _, err := readFrame(bytes.NewReader(again)); err != nil {
					t.Fatalf("frame %d bit %d.%d: accepted but re-decode failed: %v", fi, i, bit, err)
				}
			}
		}
	}
}

// TestReadFrameSingleBitFlipRejectedOutsideType pins the CRC guarantee the
// chaos suite leans on: faultnet's corrupt injector flips exactly one bit
// per write, and a flip anywhere in the payload or checksum must never
// yield a silently-wrong accepted message. The one known hole is the type
// byte: it sits in the header outside the CRC-covered payload, so a flip
// there can alias one valid type to another with the same payload shape
// (Ack ↔ Feedback, which both encode a ref list). Such a frame may decode,
// but only as a different valid type — never as a mangled payload.
func TestReadFrameSingleBitFlipRejectedOutsideType(t *testing.T) {
	const typeByte = 3 // "HB" magic (2) + version (1), then the type
	for fi, frame := range corpusFrames(t) {
		orig, err := readFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("frame %d: pristine decode failed: %v", fi, err)
		}
		for i := range frame {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), frame...)
				mut[i] ^= 1 << uint(bit)
				msg, err := decodeNoPanic(t, mut)
				if err != nil {
					continue
				}
				if i != typeByte {
					t.Fatalf("frame %d: single-bit flip at byte %d bit %d accepted", fi, i, bit)
				}
				if msg.Type() == orig.Type() {
					t.Fatalf("frame %d: type-byte flip accepted without changing the type", fi)
				}
			}
		}
	}
}

// TestReadFrameV2SingleBitFlipRejected is the v2 twin of the test above,
// with no hole: a v2 frame's CRC covers its header too, so every
// single-bit flip of every v2 frame, the type byte's included, is
// rejected.
func TestReadFrameV2SingleBitFlipRejected(t *testing.T) {
	for fi, frame := range corpusFramesV(t, Version2) {
		if _, err := readFrame(bytes.NewReader(frame)); err != nil {
			t.Fatalf("frame %d: pristine decode failed: %v", fi, err)
		}
		for i := range frame {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), frame...)
				mut[i] ^= 1 << uint(bit)
				if _, err := decodeNoPanic(t, mut); err == nil {
					t.Fatalf("frame %d: single-bit flip at byte %d bit %d accepted", fi, i, bit)
				}
				if _, err := NewFrameReader(bytes.NewReader(mut)).Next(); err == nil {
					t.Fatalf("frame %d: FrameReader accepted a flip at byte %d bit %d", fi, i, bit)
				}
			}
		}
	}
}
