package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestJSONLWritesOneLinePerEvent(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Emit(Event{At: time.Second, Device: "ue-1", Kind: KindGenerated, App: "WeChat", Seq: 1})
	j.Emit(Event{At: 2 * time.Second, Device: "relay", Kind: KindFlush, N: 3, Reason: "deadline"})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if first["kind"] != "hb-generated" || first["device"] != "ue-1" {
		t.Fatalf("line 0 = %v", first)
	}
	// Omitted zero fields.
	if _, ok := first["n"]; ok {
		t.Fatal("zero N not omitted")
	}
	written, failed := j.Counts()
	if written != 2 || failed != 0 {
		t.Fatalf("counts = %d/%d", written, failed)
	}
}

func TestEmitNilTracerIsNoop(t *testing.T) {
	Emit(nil, Event{Kind: KindAck}) // must not panic
}

func TestRecorder(t *testing.T) {
	var r Recorder
	r.Emit(Event{Kind: KindAck, Seq: 1})
	r.Emit(Event{Kind: KindFlush, N: 2})
	r.Emit(Event{Kind: KindAck, Seq: 2})
	if got := len(r.Events()); got != 3 {
		t.Fatalf("events = %d, want 3", got)
	}
	acks := r.ByKind(KindAck)
	if len(acks) != 2 || acks[1].Seq != 2 {
		t.Fatalf("ByKind = %v", acks)
	}
	// Events returns a copy.
	evs := r.Events()
	evs[0].Seq = 99
	if r.Events()[0].Seq == 99 {
		t.Fatal("Events not a copy")
	}
	if !strings.Contains(r.String(), "ack") {
		t.Fatalf("summary = %q", r.String())
	}
}

// TestJSONLBytes pins the JSON line of one event of each kind, at a
// simulator instant and at a live Unix-ns one, and reads them back at
// millisecond precision: the encoding keeps At as whole milliseconds, first.
// The kind table is closed: no kind, a value past the last kind, and a name
// outside the table neither encode nor decode.
func TestJSONLBytes(t *testing.T) {
	kinds := []struct {
		kind Kind
		name string
	}{
		{KindGenerated, "hb-generated"}, {KindD2DSend, "d2d-send"}, {KindD2DFail, "d2d-fail"},
		{KindRelayBusy, "relay-busy"}, {KindDirectSend, "direct-send"}, {KindFallback, "fallback"},
		{KindAck, "ack"}, {KindTimeout, "timeout"}, {KindMatch, "match"},
		{KindMatchFail, "match-fail"}, {KindCollect, "collect"}, {KindReject, "reject"},
		{KindFlush, "flush"}, {KindDelivery, "delivery"}, {KindConnDrop, "conn-drop"},
		{KindStop, "stop"}, {KindFault, "fault"}, {KindFaultWindow, "fault-window"},
	}
	for _, tc := range []struct {
		name   string
		at     time.Duration
		atJSON string
	}{
		{"sim", 90*time.Second + 1500*time.Microsecond, "90001"},
		{"live", Unix(time.Unix(1_700_000_000, 123_456_789)), "1700000000123"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			j := NewJSONL(&buf)
			var want strings.Builder
			for i, k := range kinds {
				j.Emit(Event{At: tc.at, Device: "ue-1", Kind: k.kind, App: "chat", Seq: uint64(i + 1)})
				fmt.Fprintf(&want, `{"atMs":%s,"device":"ue-1","kind":"%s","app":"chat","seq":%d}`+"\n", tc.atJSON, k.name, i+1)
			}
			// Every optional field, and the zero values it omits.
			j.Emit(Event{At: tc.at, Device: "r<1>", Kind: KindDelivery, Peer: "relay", N: 3, Reason: ReasonServerAck, OnTime: true})
			j.Emit(Event{At: tc.at, Kind: KindStop})
			fmt.Fprintf(&want, `{"atMs":%s,"device":"r\u003c1\u003e","kind":"delivery","peer":"relay","n":3,"reason":"server","onTime":true}`+"\n", tc.atJSON)
			fmt.Fprintf(&want, `{"atMs":%s,"device":"","kind":"stop"}`+"\n", tc.atJSON)
			if got := buf.String(); got != want.String() {
				t.Fatalf("JSONL bytes:\n%s\nwant:\n%s", got, want.String())
			}
			back, err := ReadJSONL(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(back) != len(kinds)+2 {
				t.Fatalf("read %d events, want %d", len(back), len(kinds)+2)
			}
			ms := tc.at.Truncate(time.Millisecond)
			for i, ev := range back {
				if ev.At != ms {
					t.Fatalf("event %d read back at %v, want %v", i, ev.At, ms)
				}
				if i < len(kinds) && ev.Kind != kinds[i].kind {
					t.Fatalf("event %d read back as kind %v, want %v", i, ev.Kind, kinds[i].kind)
				}
			}
			if ev := back[len(kinds)]; ev.Peer != "relay" || ev.N != 3 || ev.Reason != ReasonServerAck || !ev.OnTime || ev.Device != "r<1>" {
				t.Fatalf("optional fields read back as %+v", ev)
			}
		})
	}
	for _, bad := range []Kind{0, KindFaultWindow + 1} {
		var buf bytes.Buffer
		j := NewJSONL(&buf)
		j.Emit(Event{Device: "ue-1", Kind: bad})
		if written, failed := j.Counts(); written != 0 || failed != 1 || buf.Len() != 0 {
			t.Errorf("kind %d: counts %d/%d and %q written, want 0/1 and nothing", bad, written, failed, buf.String())
		}
		d := NewDigest()
		d.Add([]Keyed{{Ev: Event{Kind: KindAck}}, {Ev: Event{Kind: bad}}})
		if sum, err := d.Sum(); err == nil {
			t.Errorf("kind %d: digest summed to %s, want an error", bad, sum)
		}
	}
	_, err := ReadJSONL(strings.NewReader(`{"atMs":1,"device":"ue-1","kind":"ack"}` + "\n" + `{"atMs":2,"device":"ue-1","kind":"bogus"}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("reading kind bogus: err = %v, want one naming line 2 and the kind", err)
	}
}

// TestAt checks that an event's exact instant goes to the JSON as whole
// milliseconds, the sub-millisecond rest dropped.
func TestAt(t *testing.T) {
	raw, err := json.Marshal(Event{At: 1500*time.Millisecond + 999*time.Microsecond, Kind: KindAck})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"atMs":1500,"device":"","kind":"ack"}`; string(raw) != want {
		t.Fatalf("JSON = %s, want %s", raw, want)
	}
}
