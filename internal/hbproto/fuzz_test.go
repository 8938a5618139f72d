package hbproto

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/iotest"
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
	for _, v := range []byte{Version, Version2} {
		for _, m := range seedMsgs {
			frame, err := AppendFrameV(nil, v, m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
		}
	}
	for _, n := range []int{0, 1, 300} { // v2 acks of frames, the empty one too
		frame, err := AppendFrameV(nil, Version2, &Ack{Frames: make([]uint32, n)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
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
		var v byte
		msg, err := readFrameOn(bytes.NewReader(data), &v)
		if err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		// Accepted frames must round-trip in their version.
		frame, err := AppendFrameV(nil, v, msg)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		again, err := readFrame(bytes.NewReader(frame))
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

	// Seed coalesced buffers: homogeneous runs, mixed pipelines, streams
	// cut mid-frame (in the payload and in the header), and one with a
	// corrupted middle frame. Each is read in chunks of 1, 7, 64 and 3
	// bytes, in turn, on its chunked pass.
	add := func(data []byte) { f.Add(data, []byte{1, 7, 64, 3}) }
	concat := func(frames ...[]byte) []byte {
		var out []byte
		for _, fr := range frames {
			out = append(out, fr...)
		}
		return out
	}
	add(concat(hb, hb, hb, hb))
	add(concat(batch, ack, fb, reg, hb))
	add(concat(ack, ack, ack[:len(ack)-3]))
	add(concat(hb, hb[:5]))
	damaged := concat(hb, batch, hb)
	damaged[len(hb)+9] ^= 0x40
	add(damaged)
	add([]byte{})
	// Around the reader's initial buffer: a frame of exactly its size, one
	// byte longer (the first growth), a pipelined pair that straddles its
	// end, and a batch that doubles it twice, cut short past the grown
	// buffer once.
	sized := func(n int) []byte {
		for id := "e"; ; id += "e" {
			if frame := mkFrame(&Register{ID: id, Role: RoleUE}); len(frame) >= n {
				if len(frame) != n {
					f.Fatalf("register frame is %d B, want %d", len(frame), n)
				}
				return frame
			}
		}
	}
	edge, over := sized(readBufSize), sized(readBufSize+1)
	add(concat(edge, hb, ack))
	add(concat(over, edge, over))
	add(concat(hb, hb))
	big := &Batch{Relay: "r"}
	for len(mkFrame(big)) <= 2*readBufSize {
		i := len(big.HBs)
		big.HBs = append(big.HBs, Heartbeat{Src: fmt.Sprintf("ue-%02d", i), Seq: uint64(i), App: "x", Origin: time.UnixMilli(1).UTC(), Expiry: time.Second, Pad: 54})
	}
	large := mkFrame(big)
	if len(large) > 4*readBufSize {
		f.Fatalf("batch frame is %d B, want one that grows the buffer twice", len(large))
	}
	add(concat(hb, large, ack, large, fb))
	add(concat(ack, large, large[:2*readBufSize+7]))

	// The aggregated links' v2: a server's acks of frames, a sender's
	// register and batches, an ack of no frame, and streams that change
	// version mid-way, each way round.
	mkFrameV2 := func(m Message) []byte {
		frame, err := AppendFrameV(nil, Version2, m)
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	ack2, batch2, reg2 := mkFrameV2(&Ack{Frames: []uint32{1}}), mkFrameV2(big), mkFrameV2(&Register{ID: "trunk-0", Role: RoleRelay})
	add(concat(ack2, mkFrameV2(&Ack{Frames: []uint32{2, 3, 4}}), ack2))
	add(concat(reg2, batch2, mkFrameV2(&Batch{Relay: "r"}), batch2[:len(batch2)-2]))
	add(concat(ack2, mkFrameV2(&Ack{}), ack2))
	add(concat(ack, ack2))
	add(concat(reg2, batch2, batch))

	// Every input is decoded from a reader that hands over all it has, from
	// one that hands over chunks of the sizes the fuzzer chooses (its last
	// chunk comes with io.EOF), and one byte at a time, so the refill,
	// compaction and growth paths see every split of the stream.
	f.Fuzz(func(t *testing.T, data, chunks []byte) {
		decode(t, bytes.NewReader(data), data)
		decode(t, iotest.DataErrReader(&chunked{data: data, sizes: chunks}), data)
		decode(t, iotest.OneByteReader(bytes.NewReader(data)), data)
	})
}

// decode runs a FrameReader over r, which yields data, and readFrame over
// data frame by frame, on the version of its first frame: they must
// accept/reject the same prefix and agree on every message, and the reader
// ends with io.EOF exactly when the stream ends at a frame boundary.
func decode(t *testing.T, r io.Reader, data []byte) {
	t.Helper()
	fr := NewFrameReader(r)
	ref := bytes.NewReader(data)
	var v byte
	for i := 0; ; i++ {
		left := ref.Len()
		got, errNew := fr.Next()
		want, errOld := readFrameOn(ref, &v)
		if (errNew == nil) != (errOld == nil) {
			t.Fatalf("frame %d: FrameReader err %v, ReadFrame err %v", i, errNew, errOld)
		}
		if (errNew == io.EOF) != (left == 0) {
			t.Fatalf("frame %d: FrameReader err %v with %d bytes left", i, errNew, left)
		}
		if errNew != nil {
			return
		}
		if !reflect.DeepEqual(sansHandles(got), want) {
			t.Fatalf("frame %d: FrameReader %+v != ReadFrame %+v", i, got, want)
		}
	}
}

// chunked hands data over in chunks of the given sizes, in turn (at least
// one byte each).
type chunked struct {
	data  []byte
	sizes []byte
	n     int
}

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	size := len(p)
	if len(c.sizes) > 0 {
		size = max(int(c.sizes[c.n%len(c.sizes)]), 1)
		c.n++
	}
	n := copy(p[:min(size, len(p))], c.data)
	c.data = c.data[n:]
	return n, nil
}
