package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestAnalyzeDelays(t *testing.T) {
	events := []Event{
		{Device: "ue-1", Kind: KindGenerated, Seq: 1},
		{At: 100 * time.Millisecond, Device: "ue-1", Kind: KindD2DSend, Seq: 1},
		{At: 5 * time.Second, Device: "ue-1", Kind: KindDelivery, Seq: 1, Peer: "relay", OnTime: true},

		{At: time.Second, Device: "ue-2", Kind: KindGenerated, Seq: 1},
		{At: time.Second, Device: "ue-2", Kind: KindDelivery, Seq: 1, Peer: "ue-2", OnTime: true},

		{At: 2 * time.Second, Device: "ue-1", Kind: KindGenerated, Seq: 2},
		{At: 9 * time.Second, Device: "ue-1", Kind: KindDelivery, Seq: 2, Peer: "relay", OnTime: false},

		// Relay's own heartbeat: delivery without generation event.
		{At: 3 * time.Second, Device: "relay", Kind: KindDelivery, Seq: 1, Peer: "relay", OnTime: true},
	}
	a := Analyze(events)
	if a.Total.Count != 3 {
		t.Fatalf("total count = %d, want 3", a.Total.Count)
	}
	if a.Relayed.Count != 2 || a.Direct.Count != 1 {
		t.Fatalf("relayed/direct = %d/%d, want 2/1", a.Relayed.Count, a.Direct.Count)
	}
	if a.Relayed.MaxMs != 7000 {
		t.Fatalf("relayed max = %v, want 7000", a.Relayed.MaxMs)
	}
	if a.Direct.MeanMs != 0 {
		t.Fatalf("direct mean = %v, want 0", a.Direct.MeanMs)
	}
	if a.LateDeliveries != 1 {
		t.Fatalf("late = %d, want 1", a.LateDeliveries)
	}
	if a.KindCounts[KindDelivery] != 4 {
		t.Fatalf("delivery count = %d, want 4", a.KindCounts[KindDelivery])
	}
}

func TestAnalyzeDuplicateDeliveryUsesEarliest(t *testing.T) {
	events := []Event{
		{Device: "u", Kind: KindGenerated, Seq: 1},
		{At: 8 * time.Second, Device: "u", Kind: KindDelivery, Seq: 1, Peer: "u"},     // fallback (later)
		{At: 5 * time.Second, Device: "u", Kind: KindDelivery, Seq: 1, Peer: "relay"}, // relay (earlier)
	}
	a := Analyze(events)
	if a.Total.Count != 1 || a.Total.MaxMs != 5000 {
		t.Fatalf("analysis = %+v, want earliest delivery (5000)", a.Total)
	}
	if a.Relayed.Count != 1 {
		t.Fatalf("earliest delivery should classify as relayed: %+v", a)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil)
	if a.Total.Count != 0 || a.Total.MeanMs != 0 {
		t.Fatalf("empty analysis = %+v", a)
	}
}

func TestDelayStatsString(t *testing.T) {
	s := delayStats([]float64{100, 200, 300}).String()
	if !strings.Contains(s, "n=3") || !strings.Contains(s, "mean=200ms") {
		t.Fatalf("string = %q", s)
	}
}

func TestReadJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	want := []Event{
		{At: time.Millisecond, Device: "a", Kind: KindGenerated, Seq: 1},
		{At: 2 * time.Millisecond, Device: "b", Kind: KindFlush, N: 2, Reason: "capacity"},
	}
	for _, ev := range want {
		j.Emit(ev)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("events = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	for _, in := range []string{"not json\n", `{"atMs":"x"}`} {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Fatalf("garbage %q accepted", in)
		}
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	events, err := ReadJSONL(strings.NewReader("\n{\"atMs\":1,\"device\":\"a\",\"kind\":\"ack\"}\n\n"))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
}
