package hbproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/iotest"
	"time"
	"unsafe"
)

// oldWriteFrame is the pre-codec encoder, kept verbatim as the reference
// implementation: AppendFrame must produce byte-identical frames.
func oldWriteFrame(w *bytes.Buffer, msg Message) error {
	if msg == nil {
		return errors.New("hbproto: nil message")
	}
	var body buffer
	msg.encode(&body)
	if len(body.data) > MaxFrameSize {
		return ErrFrameTooBig
	}
	header := make([]byte, 0, 8+len(body.data)+4)
	header = append(header, magic[0], magic[1], Version, byte(msg.Type()))
	header = binary.BigEndian.AppendUint32(header, uint32(len(body.data)))
	header = append(header, body.data...)
	header = binary.BigEndian.AppendUint32(header, crc32.ChecksumIEEE(body.data))
	_, err := w.Write(header)
	return err
}

// sansHandles returns a copy of a decoded message with every Handle zeroed.
// Handles are a FrameReader's annotation, not part of the message: decoded
// messages compare equal to what was encoded (and to ReadFrame's result)
// modulo the handle.
func sansHandles(msg Message) Message {
	switch m := msg.(type) {
	case *Heartbeat:
		c := *m
		c.Handle = 0
		return &c
	case *Batch:
		c := *m
		c.HBs = append([]Heartbeat{}, m.HBs...)
		for i := range c.HBs {
			c.HBs[i].Handle = 0
		}
		return &c
	case *Ack:
		if m.Refs == nil { // a v2 ack of frames
			return &Ack{Frames: m.Frames}
		}
		return &Ack{Refs: refsSansHandles(m.Refs)}
	case *Feedback:
		return &Feedback{Refs: refsSansHandles(m.Refs)}
	}
	return msg
}

func refsSansHandles(refs []Ref) []Ref {
	out := append([]Ref{}, refs...)
	for i := range out {
		out[i].Handle = 0
	}
	return out
}

// corpusMessages generates a deterministic spread of messages across all
// five types and a range of string lengths, batch sizes and field values.
func corpusMessages(seed int64, n int) []Message {
	rng := rand.New(rand.NewSource(seed))
	str := func() string {
		b := make([]byte, rng.Intn(24))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	hb := func() Heartbeat {
		return Heartbeat{
			Src: str(), Seq: rng.Uint64() >> uint(rng.Intn(64)),
			App:    str(),
			Origin: time.UnixMilli(rng.Int63n(1 << 45)).UTC(),
			Expiry: time.Duration(rng.Intn(1e9)),
			Pad:    rng.Intn(MaxFrameSize),
		}
	}
	refs := func() []Ref {
		out := make([]Ref, rng.Intn(40))
		for i := range out {
			out[i] = Ref{Src: str(), Seq: rng.Uint64()}
		}
		return out
	}
	msgs := make([]Message, 0, n)
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			msgs = append(msgs, &Register{
				ID: str(), Role: Role(1 + rng.Intn(2)), App: str(),
				Period: time.Duration(rng.Intn(1e9)), Expiry: time.Duration(rng.Intn(1e9)),
			})
		case 1:
			h := hb()
			msgs = append(msgs, &h)
		case 2:
			hbs := make([]Heartbeat, rng.Intn(40))
			for j := range hbs {
				hbs[j] = hb()
			}
			msgs = append(msgs, &Batch{Relay: str(), HBs: hbs})
		case 3:
			msgs = append(msgs, &Ack{Refs: refs()})
		default:
			msgs = append(msgs, &Feedback{Refs: refs()})
		}
	}
	return msgs
}

// TestAppendFrameMatchesWriteFrame proves the new encoder byte-identical
// to the old one over a generated corpus covering every message type.
func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	for i, msg := range corpusMessages(77, 200) {
		var want bytes.Buffer
		if err := oldWriteFrame(&want, msg); err != nil {
			t.Fatalf("msg %d: old encoder: %v", i, err)
		}
		got, err := AppendFrame(nil, msg)
		if err != nil {
			t.Fatalf("msg %d: AppendFrame: %v", i, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("msg %d (%v): frames differ\n new %x\n old %x",
				i, msg.Type(), got, want.Bytes())
		}
		// The wrapper path must also match.
		var viaWrapper bytes.Buffer
		if err := writeFrame(&viaWrapper, msg); err != nil {
			t.Fatalf("msg %d: WriteFrame: %v", i, err)
		}
		if !bytes.Equal(viaWrapper.Bytes(), want.Bytes()) {
			t.Fatalf("msg %d: WriteFrame wrapper diverges from old encoder", i)
		}
	}
}

// TestAppendFrameComposes appends several frames into one buffer and
// decodes them back through both ReadFrame and FrameReader.
func TestAppendFrameComposes(t *testing.T) {
	msgs := corpusMessages(78, 25)
	var buf []byte
	for _, m := range msgs {
		var err error
		if buf, err = AppendFrame(buf, m); err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
	}
	r := bytes.NewReader(buf)
	for i, want := range msgs {
		got, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	fr := NewFrameReader(bytes.NewReader(buf))
	for i, want := range msgs {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("FrameReader frame %d: %v", i, err)
		}
		if got.Type() != want.Type() || !reflect.DeepEqual(sansHandles(got), want) {
			t.Fatalf("FrameReader frame %d: got %+v, want %+v", i, got, want)
		}
	}
}

// TestAppendFrameErrors covers the nil and oversize paths, and that an
// error leaves dst unextended.
func TestAppendFrameErrors(t *testing.T) {
	dst := []byte("prefix")
	out, err := AppendFrame(dst, nil)
	if err == nil {
		t.Fatal("nil message accepted")
	}
	if string(out) != "prefix" {
		t.Fatalf("dst extended on error: %q", out)
	}
	big := &Batch{Relay: "r", HBs: make([]Heartbeat, MaxFrameSize/8)}
	out, err = AppendFrame(dst, big)
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
	if string(out) != "prefix" {
		t.Fatal("dst extended on oversize frame")
	}
}

func TestErrTrailingBytesSentinel(t *testing.T) {
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
	raw := frame.Bytes()

	if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("ReadFrame err = %v, want ErrTrailingBytes", err)
	}
	if _, err := NewFrameReader(bytes.NewReader(raw)).Next(); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("FrameReader err = %v, want ErrTrailingBytes", err)
	}
}

// TestFrameReaderReuseIsolation pins the documented aliasing contract:
// values from Next are only valid until the following call, and interned
// strings are stable across frames.
func TestFrameReaderReuseIsolation(t *testing.T) {
	var buf []byte
	var err error
	for seq := uint64(1); seq <= 3; seq++ {
		b := &Batch{Relay: "r-1", HBs: []Heartbeat{
			{Src: "ue-a", Seq: seq, App: "std", Origin: time.UnixMilli(int64(seq)).UTC(), Expiry: time.Second, Pad: 54},
		}}
		if buf, err = AppendFrame(buf, b); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(buf))
	first, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	firstBatch := first.(*Batch)
	src1, relay1 := firstBatch.HBs[0].Src, firstBatch.Relay
	second, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	secondBatch := second.(*Batch)
	if firstBatch != secondBatch {
		t.Fatal("Batch value not reused across Next calls")
	}
	if secondBatch.HBs[0].Seq != 2 {
		t.Fatalf("seq = %d, want 2", secondBatch.HBs[0].Seq)
	}
	// Interned strings: same backing string handed out each time.
	if secondBatch.HBs[0].Src != src1 || secondBatch.Relay != relay1 {
		t.Fatal("interned strings changed across frames")
	}
}

// TestFrameReaderBuffered checks pipelining detection: with two frames in
// one buffer, Buffered counts the second after the first read and is zero
// after the second. A source that hands over one byte at a time never
// puts bytes past the frame in the buffer.
func TestFrameReaderBuffered(t *testing.T) {
	var buf []byte
	var err error
	for i := 0; i < 2; i++ {
		if buf, err = AppendFrame(buf, &Ack{Refs: []Ref{{Src: "a", Seq: uint64(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	sources := []struct {
		name    string
		r       io.Reader
		pending int
	}{
		{"whole", bytes.NewReader(buf), len(buf) / 2},
		{"one byte", iotest.OneByteReader(bytes.NewReader(buf)), 0},
	}
	for _, src := range sources {
		fr := NewFrameReader(src.r)
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		if got := fr.Buffered(); got != src.pending {
			t.Fatalf("%s: Buffered = %d after the first frame, want %d", src.name, got, src.pending)
		}
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		if got := fr.Buffered(); got != 0 {
			t.Fatalf("%s: Buffered = %d after drain, want 0", src.name, got)
		}
	}
}

// TestFrameReaderGrowth pins the buffer's growth rule. Both ends of a UE
// link read its largest frames — a registration, heartbeats of the
// largest app, acks — in the initial buffer, so 1 000 exchanges never grow
// it. Frames one byte longer each time grow it geometrically, not once
// per frame, and a batch of 4 096 heartbeats grows it to at most twice its
// frame.
func TestFrameReaderGrowth(t *testing.T) {
	const id, app = "loadue-00000", "Diagnostics"
	var server, ue bytes.Buffer
	srv, cli := NewFrameReader(&server), NewFrameReader(&ue)
	send := func(w *bytes.Buffer, fr *FrameReader, msg Message) {
		t.Helper()
		frame, err := AppendFrame(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) > readBufSize {
			t.Fatalf("a UE link's %v frame is %d B, the initial buffer %d B", msg.Type(), len(frame), readBufSize)
		}
		w.Write(frame)
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	send(&server, srv, &Register{ID: id, Role: RoleUE, App: app, Period: 600 * time.Second, Expiry: 1200 * time.Second})
	origin := time.Now()
	for seq := uint64(1); seq <= 1000; seq++ {
		send(&server, srv, &Heartbeat{Src: id, Seq: seq, App: app, Origin: origin, Expiry: 1200 * time.Second, Pad: 378})
		send(&ue, cli, &Ack{Refs: []Ref{{Src: id, Seq: seq}}})
	}
	for _, fr := range []*FrameReader{srv, cli} {
		if len(fr.buf) != readBufSize {
			t.Fatalf("a UE link's reader grew its buffer to %d B, want %d", len(fr.buf), readBufSize)
		}
	}

	var in bytes.Buffer
	fr := NewFrameReader(&in)
	growths, size, largest := 0, len(fr.buf), 0
	for id := "e"; len(id) < 4*readBufSize; id += "e" {
		frame, err := AppendFrame(nil, &Register{ID: id, Role: RoleUE})
		if err != nil {
			t.Fatal(err)
		}
		in.Write(frame)
		largest = len(frame)
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		if len(fr.buf) != size {
			growths, size = growths+1, len(fr.buf)
		}
	}
	if growths > 3 {
		t.Fatalf("frames growing one byte at a time to %d B grew the buffer %d times", largest, growths)
	}

	batch := &Batch{Relay: "trunk-1", HBs: make([]Heartbeat, 4096)}
	for i := range batch.HBs {
		batch.HBs[i] = Heartbeat{Src: fmt.Sprintf("ue-%07d", i), Seq: 1, App: "std", Origin: origin, Expiry: time.Hour}
	}
	frame, err := AppendFrame(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	fr = NewFrameReader(bytes.NewReader(frame))
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if n := len(fr.buf); n < len(frame) || n > 2*len(frame) {
		t.Fatalf("a %d B batch frame left a %d B buffer, want %d–%d", len(frame), n, len(frame), 2*len(frame))
	}
}

// TestFrameReaderErrors routes each corrupted-header case through the
// streaming decoder.
func TestFrameReaderErrors(t *testing.T) {
	frame, err := AppendFrame(nil, &Ack{Refs: []Ref{{Src: "a", Seq: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(i int, v byte) []byte {
		raw := append([]byte(nil), frame...)
		raw[i] = v
		return raw
	}
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"bad magic", mutate(0, 'X'), ErrBadMagic},
		{"bad version", mutate(2, 99), ErrBadVersion},
		{"unknown type", mutate(3, 200), ErrUnknownType},
		{"bad checksum", mutate(len(frame)-1, frame[len(frame)-1]^0xFF), ErrBadChecksum},
		{"oversize", []byte{'H', 'B', Version, byte(TypeAck), 0xFF, 0xFF, 0xFF, 0xFF}, ErrFrameTooBig},
	}
	for _, tc := range cases {
		if _, err := NewFrameReader(bytes.NewReader(tc.raw)).Next(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Truncations all error and never panic.
	for cut := 0; cut < len(frame); cut++ {
		if _, err := NewFrameReader(bytes.NewReader(frame[:cut])).Next(); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestInternTableBounded pins the intern cache cap: beyond max strings it
// stops inserting but keeps returning correct strings and serving the
// entries it has. Until a third distinct string the two recent slots are
// the table, and no map is built.
func TestInternTableBounded(t *testing.T) {
	tbl := newInternTable(4, nil)
	for i := 0; i < 3; i++ {
		if got := tbl.get([]byte("ue-a")); got != "ue-a" || tbl.other != nil {
			t.Fatalf("lone string: %q, map %v", got, tbl.other)
		}
		if got := tbl.get([]byte("std")); got != "std" || tbl.other != nil {
			t.Fatalf("second string: %q, map %v", got, tbl.other)
		}
	}
	first := tbl.get([]byte("ue-a"))
	for i := 0; i < 16; i++ {
		s := fmt.Sprintf("id-%d", i)
		if got := tbl.get([]byte(s)); got != s {
			t.Fatalf("get(%q) = %q", s, got)
		}
		// Without a table a source is a string like any other.
		if got, h := tbl.src([]byte("src-" + s)); got != "src-"+s || h != 0 {
			t.Fatalf("src(%q) = %q, handle %d", "src-"+s, got, h)
		}
	}
	if n := tbl.held(); n != 4 || len(tbl.other) != 4 {
		t.Fatalf("intern table grew to %d strings (%d in the map), cap 4", n, len(tbl.other))
	}
	// Hits are still served for cached entries, as the string first returned.
	if got := tbl.get([]byte("ue-a")); unsafe.StringData(got) != unsafe.StringData(first) {
		t.Fatal("a cached string came back as a fresh copy")
	}
	// A full table of two recent strings and no map keeps both.
	two := newInternTable(2, nil)
	two.get([]byte("a"))
	two.get([]byte("b"))
	if got := two.get([]byte("c")); got != "c" || two.other != nil || two.recent != [2]string{"b", "a"} {
		t.Fatalf("past a cap of 2: %q, map %v, recent %q", got, two.other, two.recent)
	}
}

// TestFrameReaderHandles pins what a reader with no SourceTable does with
// sources: it numbers none, stamping handle 0 on every Heartbeat and Ref,
// and interns them like any other string, so a source decodes to the same
// string frame after frame and message type after message type.
func TestFrameReaderHandles(t *testing.T) {
	ids := []string{"ue-a", "ue-b", "ue-c"}
	batch := &Batch{Relay: "r"}
	ack := &Ack{}
	for i, id := range ids {
		batch.HBs = append(batch.HBs, Heartbeat{Src: id, Seq: uint64(i), App: "std", Origin: time.UnixMilli(1).UTC()})
		ack.Refs = append(ack.Refs, Ref{Src: id, Seq: uint64(i)})
	}
	// An App that spells a source's ID is the same string.
	single := &Heartbeat{Src: "ue-b", Seq: 9, App: "ue-a", Origin: time.UnixMilli(1).UTC()}
	var buf []byte
	for _, m := range []Message{batch, ack, single, batch} {
		var err error
		if buf, err = AppendFrame(buf, m); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(buf))
	seen := map[string]*byte{}
	check := func(what, got string, h Handle) {
		t.Helper()
		if h != 0 {
			t.Fatalf("%s %q: handle %d, want 0", what, got, h)
		}
		if p, ok := seen[got]; ok && p != unsafe.StringData(got) {
			t.Fatalf("%s %q: a fresh copy, not the string decoded before", what, got)
		}
		seen[got] = unsafe.StringData(got)
	}
	for frame := 0; frame < 4; frame++ {
		msg, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch m := msg.(type) {
		case *Batch:
			for i, hb := range m.HBs {
				if hb.Src != ids[i] {
					t.Fatalf("batch hb %d = %+v", i, hb)
				}
				check("batch source", hb.Src, hb.Handle)
			}
		case *Ack:
			for i, ref := range m.Refs {
				if ref.Src != ids[i] {
					t.Fatalf("ack ref %d = %+v", i, ref)
				}
				check("ack source", ref.Src, ref.Handle)
			}
		case *Heartbeat:
			check("heartbeat source", m.Src, m.Handle)
			check("heartbeat app", m.App, 0)
		}
	}
	if len(seen) != len(ids) {
		t.Fatalf("decoded %d distinct strings, want %d", len(seen), len(ids))
	}
}

// tableOf is a SourceTable over ids (handle = index + 1) that logs the
// after argument of every lookup.
type tableOf struct {
	ids   []string
	after []Handle
}

func (tb *tableOf) Source(after Handle, b []byte) (string, Handle) {
	tb.after = append(tb.after, after)
	for i, id := range tb.ids {
		if id == string(b) {
			return id, Handle(i + 1)
		}
	}
	return "", 0
}

// TestFrameReaderSourceTable: a reader over its owner's table stamps the
// table's handles on Heartbeats and Refs alike, tells the table the handle
// of the source before, decodes a source the table does not know to its
// string with handle 0, and interns no source of its own.
func TestFrameReaderSourceTable(t *testing.T) {
	tb := &tableOf{ids: []string{"ue-a", "ue-b", "ue-c"}}
	var buf []byte
	for _, m := range []Message{
		&Ack{Refs: []Ref{{Src: "ue-c", Seq: 1}, {Src: "stranger", Seq: 2}, {Src: "ue-a", Seq: 3}}},
		&Batch{Relay: "r", HBs: []Heartbeat{{Src: "ue-b", App: "std", Origin: time.UnixMilli(1).UTC()}}},
	} {
		var err error
		if buf, err = AppendFrame(buf, m); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewTableReader(bytes.NewReader(buf), tb)
	msg, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := []Ref{{Src: "ue-c", Seq: 1, Handle: 3}, {Src: "stranger", Seq: 2}, {Src: "ue-a", Seq: 3, Handle: 1}}
	if got := msg.(*Ack).Refs; !reflect.DeepEqual(got, want) {
		t.Fatalf("refs = %+v, want %+v", got, want)
	}
	if msg, err = fr.Next(); err != nil {
		t.Fatal(err)
	}
	if hb := msg.(*Batch).HBs[0]; hb.Src != "ue-b" || hb.Handle != 2 {
		t.Fatalf("batch heartbeat = %+v, want ue-b with handle 2", hb)
	}
	if want := []Handle{0, 3, 0, 1}; !reflect.DeepEqual(tb.after, want) {
		t.Fatalf("the table was told the previous handles %v, want %v", tb.after, want)
	}
	if fr.intern.other != nil || fr.intern.recent != [2]string{"std", "r"} {
		t.Fatalf("the reader interned %q and %v beside the batch's App and Relay", fr.intern.recent, fr.intern.other)
	}
}

// steadyMessages is the fixed message set used by the alloc pins: one of
// each type, with the 32-entry batch the acceptance criteria call out.
func steadyMessages() []Message {
	hbs := make([]Heartbeat, 32)
	refs := make([]Ref, 32)
	for i := range hbs {
		src := fmt.Sprintf("ue-%04d", i)
		hbs[i] = Heartbeat{
			Src: src, Seq: uint64(i), App: "std",
			Origin: time.UnixMilli(int64(1700000000000 + i)).UTC(),
			Expiry: 270 * time.Second, Pad: 54,
		}
		refs[i] = Ref{Src: src, Seq: uint64(i)}
	}
	return []Message{
		&Register{ID: "ue-0001", Role: RoleUE, App: "std", Period: 270 * time.Second, Expiry: 270 * time.Second},
		&hbs[0],
		&Batch{Relay: "relay-1", HBs: hbs},
		&Ack{Refs: refs},
		&Feedback{Refs: refs},
	}
}

// steadyMessagesV is steadyMessages in version v: a v2 Ack lists frames.
func steadyMessagesV(v byte) []Message {
	msgs := steadyMessages()
	if v == Version2 {
		msgs[3] = &Ack{Frames: []uint32{0xdeadbeef, 7, 0}}
	}
	return msgs
}

// TestEncodeZeroAllocs pins 0 steady-state allocations per encoded frame
// for every message type, in both versions, once the destination buffer
// has warmed up.
func TestEncodeZeroAllocs(t *testing.T) {
	for _, v := range []byte{Version, Version2} {
		for _, msg := range steadyMessagesV(v) {
			buf := make([]byte, 0, 4096)
			var err error
			allocs := testing.AllocsPerRun(200, func() {
				if buf, err = AppendFrameV(buf[:0], v, msg); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("v%d %v encode: %.1f allocs/frame, want 0", v, msg.Type(), allocs)
			}
		}
	}
}

// TestDecodeZeroAllocs pins 0 steady-state allocations per decoded frame
// for every message type, in both versions: after a warm-up frame the
// FrameReader's buffer, message values, slices and intern table absorb
// everything.
func TestDecodeZeroAllocs(t *testing.T) {
	for _, v := range []byte{Version, Version2} {
		for _, msg := range steadyMessagesV(v) {
			testDecodeZeroAllocs(t, v, msg)
		}
	}
}

func testDecodeZeroAllocs(t *testing.T, v byte, msg Message) {
	t.Helper()
	frame, err := AppendFrameV(nil, v, msg)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(nil)
	fr := NewFrameReader(r)
	r.Reset(frame)
	if _, err := fr.Next(); err != nil { // warm-up: sizes the buffer, interns strings
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("v%d %v decode: %.1f allocs/frame, want 0", v, msg.Type(), allocs)
	}
}

// TestWriteFramePooledZeroAllocs pins the wrapper path: pooled buffer
// reuse keeps the single-frame WriteFrame allocation-free too.
func TestWriteFramePooledZeroAllocs(t *testing.T) {
	msg := steadyMessages()[1]
	var sink bytes.Buffer
	sink.Grow(1 << 16)
	allocs := testing.AllocsPerRun(200, func() {
		sink.Reset()
		if err := writeFrame(&sink, msg); err != nil {
			t.Fatal(err)
		}
	})
	// One alloc of slack: pool Get/Put may interact with GC mid-run.
	if allocs > 1 {
		t.Errorf("WriteFrame: %.1f allocs/frame, want <= 1", allocs)
	}
}
