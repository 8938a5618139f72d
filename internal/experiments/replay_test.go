package experiments

import (
	"testing"
	"time"

	"d2dhb/internal/rec"
)

// replayFixture builds a mixed-path timeline: two direct clients, three
// relayed clients on one group, two trunked on another.
func replayFixture() *rec.Timeline {
	tl := &rec.Timeline{
		Seed:          2017,
		RelayPeriod:   30 * time.Second,
		RelayCapacity: 3,
		Clients: []rec.Client{
			{ID: "d0", App: "chat", Period: 60 * time.Second, Expiry: 30 * time.Second, Relay: -1},
			{ID: "d1", App: "push", Period: 60 * time.Second, Expiry: 30 * time.Second, Relay: -1},
			{ID: "r0", App: "chat", Period: 60 * time.Second, Expiry: 30 * time.Second, Path: rec.PathRelayed, Relay: 0},
			{ID: "r1", App: "chat", Period: 60 * time.Second, Expiry: 30 * time.Second, Path: rec.PathRelayed, Relay: 0},
			{ID: "r2", App: "chat", Period: 60 * time.Second, Expiry: 30 * time.Second, Path: rec.PathRelayed, Relay: 0},
			{ID: "t0", App: "iot", Period: 60 * time.Second, Expiry: 20 * time.Second, Path: rec.PathTrunked, Relay: 1},
			{ID: "t1", App: "iot", Period: 60 * time.Second, Expiry: 20 * time.Second, Path: rec.PathTrunked, Relay: 1},
		},
	}
	// Three periods of staggered sends.
	for p := 0; p < 3; p++ {
		base := time.Duration(p) * 60 * time.Second
		for i, off := range []time.Duration{0, 700 * time.Millisecond, 2 * time.Second,
			3 * time.Second, 9 * time.Second, 11 * time.Second, 12 * time.Second} {
			tl.Events = append(tl.Events, rec.Event{
				At:     base + off,
				Kind:   rec.EvSend,
				Client: i,
				Seq:    uint64(p + 1),
			})
		}
	}
	return tl
}

func TestReplaySimDeterministic(t *testing.T) {
	tl := replayFixture()
	m1, err := ReplaySim(tl)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ReplaySim(tl)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Digest() != m2.Digest() {
		t.Fatalf("replay not deterministic:\n%+v\n%+v", m1, m2)
	}
	// Round-tripping the trace through the codec must not change the
	// replay outcome either.
	rt, err := rec.Decode(tl.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	m3, err := ReplaySim(rt)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Digest() != m1.Digest() {
		t.Fatal("codec round trip changed replay outcome")
	}
}

func TestReplaySimOutcome(t *testing.T) {
	tl := replayFixture()
	m, err := ReplaySim(tl)
	if err != nil {
		t.Fatal(err)
	}
	if m.Source != "sim" {
		t.Fatalf("source %q", m.Source)
	}
	if m.Sent != 21 {
		t.Fatalf("sent %d, want 21", m.Sent)
	}
	// Nothing expires in this fixture: every send is delivered.
	if m.Delivered != m.Sent || m.Timeouts != 0 {
		t.Fatalf("delivered %d timeouts %d", m.Delivered, m.Timeouts)
	}
	if m.DeliveryRatio != 1 {
		t.Fatalf("delivery ratio %v", m.DeliveryRatio)
	}
	// Aggregation must beat one-uplink-per-heartbeat: 6 direct sends plus
	// batched flushes for the 15 relayed/trunked sends.
	if m.Signaling.Uplinks >= m.Sent {
		t.Fatalf("no aggregation: %d uplinks for %d sends", m.Signaling.Uplinks, m.Sent)
	}
	if m.Signaling.Batches == 0 || m.Signaling.L3Messages == 0 {
		t.Fatalf("signaling %+v", m.Signaling)
	}
	// Relayed heartbeats wait for their batch: the p99 must show real
	// batching delay while direct sends keep the p50 at zero.
	if m.AckLatency.Count != m.Delivered {
		t.Fatalf("latency count %d", m.AckLatency.Count)
	}
	if m.AckLatency.MaxMs <= 0 {
		t.Fatal("relayed latency should be positive")
	}
}

func TestReplaySimCapacityFlush(t *testing.T) {
	// Capacity 2 with three quick arrivals: the second fills the window and
	// flushes it, and Algorithm 1 collects nothing more until the next
	// period, so the third is rejected and times out.
	tl := &rec.Timeline{
		RelayPeriod:   time.Minute,
		RelayCapacity: 2,
		Clients: []rec.Client{
			{ID: "a", Expiry: 10 * time.Second, Path: rec.PathRelayed, Relay: 0},
			{ID: "b", Expiry: 10 * time.Second, Path: rec.PathRelayed, Relay: 0},
			{ID: "c", Expiry: 10 * time.Second, Path: rec.PathRelayed, Relay: 0},
		},
		Events: []rec.Event{
			{At: 0, Kind: rec.EvSend, Client: 0, Seq: 1},
			{At: time.Second, Kind: rec.EvSend, Client: 1, Seq: 1},
			{At: 2 * time.Second, Kind: rec.EvSend, Client: 2, Seq: 1},
		},
	}
	m, err := ReplaySim(tl)
	if err != nil {
		t.Fatal(err)
	}
	if m.Delivered != 2 || m.Timeouts != 1 || m.Signaling.Batches != 1 {
		t.Fatalf("delivered %d timeouts %d batches %d, want 2/1/1", m.Delivered, m.Timeouts, m.Signaling.Batches)
	}
}

func TestReplaySimTrunkGroupSendsItsEmissions(t *testing.T) {
	// A trunk holds nothing: two emissions a second apart, below capacity,
	// are two uplinks, each acknowledged at its send.
	tl := &rec.Timeline{
		RelayPeriod:   time.Minute,
		RelayCapacity: 4,
		Clients: []rec.Client{
			{ID: "a", Expiry: 30 * time.Second, Path: rec.PathTrunked, Relay: 0},
			{ID: "b", Expiry: 30 * time.Second, Path: rec.PathTrunked, Relay: 0},
		},
		Events: []rec.Event{
			{At: 0, Kind: rec.EvSend, Client: 0, Seq: 1},
			{At: time.Second, Kind: rec.EvSend, Client: 1, Seq: 1},
		},
	}
	m, err := ReplaySim(tl)
	if err != nil {
		t.Fatal(err)
	}
	if m.Delivered != 2 || m.Signaling.Uplinks != 2 || m.Signaling.Batches != 2 {
		t.Fatalf("delivered %d uplinks %d batches %d, want 2/2/2", m.Delivered, m.Signaling.Uplinks, m.Signaling.Batches)
	}
	if m.AckLatency.MaxMs != 0 {
		t.Fatalf("ack latency max %v ms, want 0", m.AckLatency.MaxMs)
	}
}

func TestReplaySimErrors(t *testing.T) {
	if _, err := ReplaySim(nil); err == nil {
		t.Fatal("nil timeline accepted")
	}
	bad := &rec.Timeline{RelayPeriod: -1}
	if _, err := ReplaySim(bad); err == nil {
		t.Fatal("invalid timeline accepted")
	}
	// Relay clients without relay parameters cannot be replayed.
	norelay := &rec.Timeline{
		Clients: []rec.Client{{ID: "a", Path: rec.PathRelayed, Relay: 0}},
		Events:  []rec.Event{{Kind: rec.EvSend, Client: 0, Seq: 1}},
	}
	if _, err := ReplaySim(norelay); err == nil {
		t.Fatal("relay clients without relay params accepted")
	}
}
