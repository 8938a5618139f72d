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

// TestInternTableBounded pins the intern cache cap: beyond max entries it
// stops inserting — sources past the cap get handle 0 — but keeps
// returning correct strings and serving the entries it has.
func TestInternTableBounded(t *testing.T) {
	tbl := newInternTable(4, nil)
	for i := 0; i < 16; i++ {
		s := fmt.Sprintf("id-%d", i)
		got, h := tbl.src([]byte(s))
		if got != s {
			t.Fatalf("src(%q) = %q", s, got)
		}
		// Sources and other strings share the cap: two of each fit.
		if want := Handle(i + 1); i < 2 && h != want || i >= 2 && h != 0 {
			t.Fatalf("src(%q) handle = %d (cap 4)", s, h)
		}
		if got := tbl.get([]byte("app-" + s)); got != "app-"+s {
			t.Fatalf("get(%q) = %q", "app-"+s, got)
		}
	}
	if n := tbl.ids.Len() + tbl.others(); n != 4 || len(tbl.strs) != tbl.ids.Len()+1 || len(tbl.next) != len(tbl.strs) {
		t.Fatalf("intern table grew to %d entries (%d strs, %d next), cap 4", n, len(tbl.strs), len(tbl.next))
	}
	// A lone source needs no index: it is built when the second one arrives.
	one := newInternTable(4, nil)
	for i := 0; i < 3; i++ {
		if s, h := one.src([]byte("only")); s != "only" || h != 1 || one.ids.Len() != 0 {
			t.Fatalf("lone source: %q handle %d, %d indexed", s, h, one.ids.Len())
		}
	}
	if _, h := one.src([]byte("second")); h != 2 || one.ids.Len() != 2 {
		t.Fatalf("second source: handle %d, %d indexed", h, one.ids.Len())
	}
	if _, h := one.src([]byte("only")); h != 1 {
		t.Fatalf("first source after the index was built: handle %d", h)
	}
	// Hits still served for cached entries, with their handle.
	if got, h := tbl.src([]byte("id-0")); got != "id-0" || h != 1 {
		t.Fatalf("cached hit = %q, handle %d", got, h)
	}
}

// mapIntern is the source half of the intern table as a map[string]Handle,
// the reference the index must agree with: handles in first-seen order
// while the cap has room, 0 after; a lone source compared directly; the
// successor guess tried first and learnt on every resolution.
type mapIntern struct {
	strs  []string
	next  []Handle
	prev  Handle
	ids   map[string]Handle
	other map[string]bool
	max   int
	stats IDStats
}

func (m *mapIntern) full() bool { return len(m.strs)-1+len(m.other) >= m.max }

func (m *mapIntern) get(s string) {
	if !m.other[s] && !m.full() {
		m.other[s] = true
	}
}

func (m *mapIntern) src(s string) Handle {
	if g := m.next[m.prev]; g != 0 && m.strs[g] == s {
		m.stats.GuessHits++
		m.prev = g
		return g
	}
	m.stats.GuessMisses++
	h, ok := m.ids[s]
	if !ok {
		if m.full() {
			m.prev = 0
			return 0
		}
		h = Handle(len(m.strs))
		m.strs, m.next, m.ids[s] = append(m.strs, s), append(m.next, 0), h
	}
	m.next[m.prev], m.prev = h, h
	return h
}

// TestInternIndexMatchesMap drives the intern table and mapIntern through
// the same random scripts: sources drawn from a population with periodic
// runs (the guess hits) and shuffled stretches (it misses), a lone source
// before the second arrives, and other strings sharing a cap small enough
// that some scripts fill it. Every call must return the same string and
// handle, and the guess counts must agree.
func TestInternIndexMatchesMap(t *testing.T) {
	const scripts = 40
	filled := 0
	defer func() {
		if filled == 0 || filled == scripts {
			t.Errorf("%d of %d scripts filled the table: the cap is not covered from both sides", filled, scripts)
		}
	}()
	for seed := int64(1); seed <= scripts; seed++ {
		rng := rand.New(rand.NewSource(seed))
		population, max := 1+rng.Intn(300), 2+rng.Intn(400)
		tbl := newInternTable(max, nil)
		ref := &mapIntern{strs: make([]string, 1), next: make([]Handle, 1), ids: map[string]Handle{}, other: map[string]bool{}, max: max}
		lone := rng.Intn(20) // calls with the first source alone
		order := rng.Perm(population)
		for step := 0; step < 3000; step++ {
			var id string
			switch {
			case step < lone:
				id = "src-0"
			case rng.Intn(10) == 0:
				id = fmt.Sprintf("app-%d", rng.Intn(40))
				ref.get(id)
				if got := tbl.get([]byte(id)); got != id {
					t.Fatalf("seed %d step %d: get(%q) = %q", seed, step, id, got)
				}
				continue
			case rng.Intn(4) == 0:
				id = fmt.Sprintf("src-%d", rng.Intn(population))
			default:
				id = fmt.Sprintf("src-%d", order[step%population])
			}
			want := ref.src(id)
			if got, h := tbl.src([]byte(id)); got != id || h != want {
				t.Fatalf("seed %d step %d: src(%q) = %q, handle %d; the map gives %d", seed, step, id, got, h, want)
			}
		}
		if tbl.stats != ref.stats || len(tbl.strs) != len(ref.strs) {
			t.Fatalf("seed %d: stats %+v and %d sources, the map gives %+v and %d", seed, tbl.stats, len(tbl.strs), ref.stats, len(ref.strs))
		}
		if ref.full() {
			filled++
		}
	}
}

// TestFrameReaderHandles pins what a handle is: dense, 1-based, issued in
// first-seen order, stable for the life of the reader, shared by every
// message type that carries the source, and private to the reader.
func TestFrameReaderHandles(t *testing.T) {
	ids := []string{"ue-a", "ue-b", "ue-c"}
	batch := &Batch{Relay: "r"}
	ack := &Ack{}
	for i, id := range ids {
		batch.HBs = append(batch.HBs, Heartbeat{Src: id, Seq: uint64(i), App: "std", Origin: time.UnixMilli(1).UTC()})
		ack.Refs = append(ack.Refs, Ref{Src: id, Seq: uint64(i)})
	}
	single := &Heartbeat{Src: "ue-b", Seq: 9, App: "ue-a", Origin: time.UnixMilli(1).UTC()}
	var buf []byte
	for _, m := range []Message{batch, ack, single, batch} {
		var err error
		if buf, err = AppendFrame(buf, m); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(buf))
	next := func() Message {
		t.Helper()
		msg, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	// Relay and App strings are interned too but take no handle.
	for i, hb := range next().(*Batch).HBs {
		if hb.Handle != Handle(i+1) {
			t.Fatalf("first batch hb %d handle = %d, want %d", i, hb.Handle, i+1)
		}
	}
	for i, ref := range next().(*Ack).Refs {
		if ref.Handle != Handle(i+1) || ref.Src != ids[i] {
			t.Fatalf("ack ref %d = %+v, want handle %d", i, ref, i+1)
		}
	}
	// An App that spells a source's ID does not disturb the source stream.
	if hb := next().(*Heartbeat); hb.Handle != 2 || hb.App != "ue-a" {
		t.Fatalf("single heartbeat = %+v, want handle 2", hb)
	}
	for i, hb := range next().(*Batch).HBs {
		if hb.Handle != Handle(i+1) {
			t.Fatalf("second batch hb %d handle = %d, want %d", i, hb.Handle, i+1)
		}
	}
	// A second reader numbers independently: a handle is meaningless
	// outside the reader that issued it.
	other, err := AppendFrame(nil, &Ack{Refs: []Ref{{Src: "ue-c", Seq: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := NewFrameReader(bytes.NewReader(other)).Next()
	if err != nil {
		t.Fatal(err)
	}
	if h := msg.(*Ack).Refs[0].Handle; h != 1 {
		t.Fatalf("fresh reader issued handle %d for its first source, want 1", h)
	}
	// ReadFrame has no table: handle 0.
	plain, err := readFrame(bytes.NewReader(other))
	if err != nil {
		t.Fatal(err)
	}
	if h := plain.(*Ack).Refs[0].Handle; h != 0 {
		t.Fatalf("ReadFrame issued handle %d", h)
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
	if fr.intern.strs != nil || fr.intern.next != nil {
		t.Fatalf("the reader holds intern columns of its own: %d sources, %d successors", len(fr.intern.strs), len(fr.intern.next))
	}
	if st := fr.IDStats(); st != (IDStats{}) {
		t.Fatalf("a table reader counted %+v: its table resolves every source", st)
	}
}

// TestFrameReaderPastInternCap drives a reader past a small cap: sources
// beyond it decode correctly with handle 0, and the ones that fit keep
// their handles whether the guess or the map resolves them.
func TestFrameReaderPastInternCap(t *testing.T) {
	const population, rounds = 12, 3
	var buf []byte
	for r := 0; r < rounds; r++ {
		ack := &Ack{}
		for i := 0; i < population; i++ {
			ack.Refs = append(ack.Refs, Ref{Src: fmt.Sprintf("ue-%02d", i), Seq: uint64(r)})
		}
		var err error
		if buf, err = AppendFrame(buf, ack); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(buf))
	fr.intern.max = 5
	for r := 0; r < rounds; r++ {
		msg, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		for i, ref := range msg.(*Ack).Refs {
			want := Handle(0)
			if i < 5 {
				want = Handle(i + 1)
			}
			if ref.Src != fmt.Sprintf("ue-%02d", i) || ref.Seq != uint64(r) || ref.Handle != want {
				t.Fatalf("round %d ref %d = %+v, want handle %d", r, i, ref, want)
			}
		}
	}
}

// TestSuccessorGuess pins the guess's two promises: on periodic traffic it
// resolves every source after the first period, and on traffic with no
// order it is only a wasted compare — every source still decodes to the
// right string and the handle it was first given.
func TestSuccessorGuess(t *testing.T) {
	const population, rounds = 64, 8
	ids := make([]string, population)
	for i := range ids {
		ids[i] = fmt.Sprintf("ue-%03d", i)
	}
	decode := func(order func(round int) []int) (IDStats, map[string]Handle) {
		var buf []byte
		var sent []string
		for r := 0; r < rounds; r++ {
			b := &Batch{Relay: "r"}
			for _, i := range order(r) {
				b.HBs = append(b.HBs, Heartbeat{Src: ids[i], Seq: uint64(r), App: "std", Origin: time.UnixMilli(1).UTC()})
				sent = append(sent, ids[i])
			}
			var err error
			if buf, err = AppendFrame(buf, b); err != nil {
				t.Fatal(err)
			}
		}
		fr := NewFrameReader(bytes.NewReader(buf))
		handles := make(map[string]Handle)
		for r, k := 0, 0; r < rounds; r++ {
			msg, err := fr.Next()
			if err != nil {
				t.Fatal(err)
			}
			for _, hb := range msg.(*Batch).HBs {
				if hb.Src != sent[k] {
					t.Fatalf("heartbeat %d decoded as %q, sent %q", k, hb.Src, sent[k])
				}
				if h, seen := handles[hb.Src]; seen && h != hb.Handle {
					t.Fatalf("%q changed handle %d -> %d", hb.Src, h, hb.Handle)
				}
				handles[hb.Src] = hb.Handle
				k++
			}
		}
		return fr.IDStats(), handles
	}

	inOrder := make([]int, population)
	for i := range inOrder {
		inOrder[i] = i
	}
	st, _ := decode(func(int) []int { return inOrder })
	// The first period is cold; the wrap-around from the last source back
	// to the first is learnt at the start of the second.
	if want := uint64(population*(rounds-1) - 1); st.GuessHits != want || st.GuessMisses != population+1 {
		t.Fatalf("periodic traffic: %+v, want %d hits, %d misses", st, want, population+1)
	}

	rng := rand.New(rand.NewSource(5))
	st, handles := decode(func(int) []int { return rng.Perm(population) })
	if st.GuessHits+st.GuessMisses != population*rounds {
		t.Fatalf("shuffled traffic: %+v does not add up to %d sources", st, population*rounds)
	}
	if len(handles) != population {
		t.Fatalf("shuffled traffic: %d distinct sources decoded, want %d", len(handles), population)
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
