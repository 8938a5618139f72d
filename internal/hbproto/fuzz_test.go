package hbproto

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// FuzzReadFrame hardens the decoder against arbitrary input: it must never
// panic, and every frame it does accept must re-encode to an equivalent
// frame (decode/encode/decode fixed point).
func FuzzReadFrame(f *testing.F) {
	// Seed with every valid message type.
	seedMsgs := []Message{
		&Register{ID: "ue-1", Role: RoleUE, App: "WeChat", Period: 270 * time.Second, Expiry: 270 * time.Second},
		&Heartbeat{Src: "ue-1", Seq: 7, App: "QQ", Origin: time.UnixMilli(1500000000000).UTC(), Expiry: time.Minute, Pad: 378},
		&Batch{Relay: "r", HBs: []Heartbeat{{Src: "a", Seq: 1, App: "x", Origin: time.UnixMilli(1).UTC(), Expiry: time.Second, Pad: 54}}},
		&Ack{Refs: []Ref{{Src: "a", Seq: 1}}},
		&Feedback{Refs: []Ref{{Src: "b", Seq: 2}}},
	}
	for _, m := range seedMsgs {
		var buf bytes.Buffer
		if err := writeFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{'H', 'B', Version, 99, 0, 0, 0, 0})

	// Seeded corpus of damaged real frames: every truncation point and a
	// spread of single-bit flips over each valid encoding. These are the
	// exact shapes faultnet's corrupt/reset injectors produce on the wire,
	// so the fuzzer starts from the corruption space chaos runs explore.
	rng := rand.New(rand.NewSource(99))
	for _, m := range seedMsgs {
		var buf bytes.Buffer
		if err := writeFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		frame := buf.Bytes()
		for cut := 0; cut < len(frame); cut += 3 {
			f.Add(append([]byte(nil), frame[:cut]...))
		}
		for i := 0; i < 8; i++ {
			flipped := append([]byte(nil), frame...)
			flipped[rng.Intn(len(flipped))] ^= 1 << uint(rng.Intn(8))
			f.Add(flipped)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		// Accepted frames must round-trip.
		var buf bytes.Buffer
		if err := writeFrame(&buf, msg); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		again, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Type() != msg.Type() {
			t.Fatalf("type changed across round-trip: %v vs %v", again.Type(), msg.Type())
		}
	})
}

// FuzzFrameReaderStream differentially fuzzes the zero-alloc streaming
// decoder against ReadFrame over coalesced multi-frame buffers — the
// exact byte layout AppendFrame-composed flushes put on the wire. Both
// decoders must accept/reject the same prefix of every input and agree
// on each decoded message.
func FuzzFrameReaderStream(f *testing.F) {
	mkFrame := func(m Message) []byte {
		frame, err := AppendFrame(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	hb := mkFrame(&Heartbeat{Src: "ue-1", Seq: 7, App: "QQ", Origin: time.UnixMilli(1500000000000).UTC(), Expiry: time.Minute, Pad: 378})
	batch := mkFrame(&Batch{Relay: "r", HBs: []Heartbeat{{Src: "a", Seq: 1, App: "x", Origin: time.UnixMilli(1).UTC(), Expiry: time.Second, Pad: 54}}})
	ack := mkFrame(&Ack{Refs: []Ref{{Src: "a", Seq: 1}}})
	fb := mkFrame(&Feedback{Refs: []Ref{{Src: "b", Seq: 2}}})
	reg := mkFrame(&Register{ID: "ue-1", Role: RoleUE, App: "WeChat", Period: 270 * time.Second, Expiry: 270 * time.Second})

	// Seed coalesced buffers: homogeneous runs, mixed pipelines, a stream
	// cut mid-frame, and one with a corrupted middle frame.
	concat := func(frames ...[]byte) []byte {
		var out []byte
		for _, fr := range frames {
			out = append(out, fr...)
		}
		return out
	}
	f.Add(concat(hb, hb, hb, hb))
	f.Add(concat(batch, ack, fb, reg, hb))
	f.Add(concat(ack, ack, ack[:len(ack)-3]))
	damaged := concat(hb, batch, hb)
	damaged[len(hb)+9] ^= 0x40
	f.Add(damaged)
	f.Add([]byte{})
	// Around the reader's 512 B buffer: a run of small frames that
	// straddles each refill, a frame that ends exactly on the buffer's end,
	// and batches larger than the buffer between small frames, cut short
	// past the buffer once.
	var run [][]byte
	for len(concat(run...)) < 3*readBufSize {
		run = append(run, hb)
	}
	f.Add(concat(run...))
	var edge []byte
	for id := "e"; len(edge) < readBufSize; id += "e" {
		edge = mkFrame(&Register{ID: id, Role: RoleUE})
	}
	if len(edge) != readBufSize {
		f.Fatalf("edge frame is %d B, want %d", len(edge), readBufSize)
	}
	f.Add(concat(edge, hb, ack))
	big := &Batch{Relay: "r"}
	for i := 0; i < 40; i++ {
		big.HBs = append(big.HBs, Heartbeat{Src: fmt.Sprintf("ue-%02d", i), Seq: uint64(i), App: "x", Origin: time.UnixMilli(1).UTC(), Expiry: time.Second, Pad: 54})
	}
	large := mkFrame(big)
	f.Add(concat(hb, large, ack, large, fb))
	f.Add(concat(ack, large, large[:readBufSize+7]))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		ref := bytes.NewReader(data)
		for i := 0; ; i++ {
			got, errNew := fr.Next()
			want, errOld := readFrame(ref)
			if (errNew == nil) != (errOld == nil) {
				t.Fatalf("frame %d: FrameReader err %v, ReadFrame err %v", i, errNew, errOld)
			}
			if errNew != nil {
				return
			}
			if !reflect.DeepEqual(sansHandles(got), want) {
				t.Fatalf("frame %d: FrameReader %+v != ReadFrame %+v", i, got, want)
			}
		}
	})
}
