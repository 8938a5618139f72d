package hbprototest

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"d2dhb/internal/hbproto"
)

// TestRoundTripStopsAtTheFrame writes frames back to back and reads them
// one at a time: each decodes to what was written, handle-free, and the
// bytes of the next frame stay in the stream.
func TestRoundTripStopsAtTheFrame(t *testing.T) {
	origin := time.UnixMilli(1_700_000_000_000).UTC()
	msgs := []hbproto.Message{
		&hbproto.Heartbeat{Src: "ue-1", Seq: 1, App: "a", Origin: origin, Expiry: time.Minute, Pad: 54},
		&hbproto.Batch{Relay: "r", HBs: []hbproto.Heartbeat{{Src: "ue-1", Seq: 2, App: "a", Origin: origin, Expiry: time.Minute}}},
		&hbproto.Ack{Refs: []hbproto.Ref{{Src: "ue-1", Seq: 2}}},
		&hbproto.Feedback{Refs: []hbproto.Ref{{Src: "ue-2", Seq: 3}}},
	}
	var stream bytes.Buffer
	for _, m := range msgs {
		if err := WriteFrame(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadFrame(&stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if stream.Len() != 0 {
		t.Fatalf("%d bytes left after the last frame", stream.Len())
	}
}
