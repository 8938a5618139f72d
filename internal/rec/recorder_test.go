package rec

import (
	"strings"
	"sync"
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Start(t0, 1)
	r.SetRelay(time.Minute, 5)
	if idx := r.AddClient(Client{ID: "x"}); idx != -1 {
		t.Fatalf("nil AddClient returned %d", idx)
	}
	r.AddFault(FaultWindow{Kind: "latency"})
	r.Record(EvSend, 0, 1, t0)
	if r.Events() != 0 {
		t.Fatal("nil recorder counted events")
	}
	if _, err := r.Timeline(); err == nil {
		t.Fatal("nil recorder produced a timeline")
	}
}

func TestRecorderLifecycle(t *testing.T) {
	r := NewRecorder()
	if _, err := r.Timeline(); err == nil {
		t.Fatal("unstarted recorder produced a timeline")
	}
	// Events before Start are dropped.
	r.Record(EvSend, 0, 1, t0)

	r.Start(t0, 99)
	r.Start(t0.Add(time.Hour), 1) // second Start ignored
	r.SetRelay(30*time.Second, 5)
	a := r.AddClient(Client{ID: "ue-a", App: "chat", Period: time.Minute, Relay: -1})
	b := r.AddClient(Client{ID: "ue-b", App: "push", Period: time.Minute, Path: PathRelayed, Relay: 0})
	if a != 0 || b != 1 {
		t.Fatalf("client indices %d,%d", a, b)
	}
	r.AddFault(FaultWindow{Kind: "latency", From: 2 * time.Second, To: 4 * time.Second})

	// Recorded deliberately out of order; before-start and negative-index
	// events must be dropped.
	r.Record(EvAck, b, 1, t0.Add(3*time.Second))
	r.Record(EvSend, b, 1, t0.Add(1*time.Second))
	r.Record(EvSend, a, 1, t0.Add(1*time.Second))
	r.Record(EvTimeout, a, 1, t0.Add(5*time.Second))
	r.Record(EvSend, -1, 1, t0.Add(1*time.Second))
	r.Record(EvSend, a, 0, t0.Add(-time.Second))
	if got := r.Events(); got != 4 {
		t.Fatalf("Events() = %d, want 4", got)
	}

	tl, err := r.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if tl.Seed != 99 || tl.BaseUnixNano != t0.UnixNano() {
		t.Fatalf("header %d/%d", tl.Seed, tl.BaseUnixNano)
	}
	if tl.RelayPeriod != 30*time.Second || tl.RelayCapacity != 5 {
		t.Fatalf("relay params %v/%d", tl.RelayPeriod, tl.RelayCapacity)
	}
	// Canonical order: (At, Client, Seq, Kind).
	want := []Event{
		{At: time.Second, Kind: EvSend, Client: 0, Seq: 1},
		{At: time.Second, Kind: EvSend, Client: 1, Seq: 1},
		{At: 3 * time.Second, Kind: EvAck, Client: 1, Seq: 1},
		{At: 5 * time.Second, Kind: EvTimeout, Client: 0, Seq: 1},
	}
	if len(tl.Events) != len(want) {
		t.Fatalf("got %d events, want %d", len(tl.Events), len(want))
	}
	for i := range want {
		if tl.Events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, tl.Events[i], want[i])
		}
	}
	if tl.Horizon() != 5*time.Second || tl.Sends() != 2 {
		t.Fatalf("horizon %v sends %d", tl.Horizon(), tl.Sends())
	}

	// Snapshot is a clone: mutating it must not corrupt the recorder.
	tl.Events[0].Seq = 999
	tl2, err := r.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if tl2.Events[0].Seq != 1 {
		t.Fatal("snapshot aliased recorder state")
	}
}

func TestRecorderSortsFaults(t *testing.T) {
	r := NewRecorder()
	r.Start(t0, 0)
	r.AddClient(Client{ID: "a", Relay: -1})
	r.AddFault(FaultWindow{Kind: "reset", From: 9 * time.Second})
	r.AddFault(FaultWindow{Kind: "latency", From: time.Second, To: 2 * time.Second})
	r.AddFault(FaultWindow{Kind: "blackhole", From: time.Second, To: 3 * time.Second})
	tl, err := r.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if tl.Faults[0].Kind != "blackhole" || tl.Faults[1].Kind != "latency" || tl.Faults[2].Kind != "reset" {
		t.Fatalf("fault order %v", tl.Faults)
	}
}

// TestRecorderConcurrent hammers the recorder from many goroutines and
// checks the snapshot is canonical and complete. Run with -race.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	r.Start(t0, 0)
	const workers, per = 8, 200
	ids := make([]int, workers)
	for w := range ids {
		ids[w] = r.AddClient(Client{ID: strings.Repeat("w", w+1), Relay: -1})
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				at := t0.Add(time.Duration(i*workers+w) * time.Millisecond)
				r.Record(EvSend, ids[w], uint64(i), at)
			}
		}(w)
	}
	wg.Wait()
	tl, err := r.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Events) != workers*per {
		t.Fatalf("lost events: %d of %d", len(tl.Events), workers*per)
	}
	if _, err := Decode(tl.Append(nil)); err != nil {
		t.Fatalf("concurrent snapshot not canonical: %v", err)
	}
}

func TestRecordedMetrics(t *testing.T) {
	r := NewRecorder()
	r.Start(t0, 0)
	a := r.AddClient(Client{ID: "a", Relay: -1})
	b := r.AddClient(Client{ID: "b", Relay: -1})
	// a: two acked heartbeats at 10ms and 30ms latency; b: one timeout and
	// one orphan ack (no matching send).
	r.Record(EvSend, a, 1, t0)
	r.Record(EvAck, a, 1, t0.Add(10*time.Millisecond))
	r.Record(EvSend, a, 2, t0.Add(time.Second))
	r.Record(EvAck, a, 2, t0.Add(time.Second+30*time.Millisecond))
	r.Record(EvSend, b, 1, t0.Add(time.Second))
	r.Record(EvTimeout, b, 1, t0.Add(2*time.Second))
	r.Record(EvAck, b, 7, t0.Add(3*time.Second))

	tl, err := r.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	m := tl.RecordedMetrics()
	if m.Source != "recorded" || m.Sent != 3 || m.Delivered != 2 || m.Timeouts != 1 {
		t.Fatalf("metrics %+v", m)
	}
	if m.DeliveryRatio < 0.66 || m.DeliveryRatio > 0.67 {
		t.Fatalf("delivery ratio %v", m.DeliveryRatio)
	}
	// The orphan ack (seq 7 never sent) matches nothing: it must count
	// neither as a delivery nor as a latency sample.
	if m.AckLatency.Count != 2 {
		t.Fatalf("latency count %d", m.AckLatency.Count)
	}
	if m.AckLatency.P50Ms != 10 || m.AckLatency.MaxMs != 30 || m.AckLatency.MeanMs != 20 {
		t.Fatalf("latency %+v", m.AckLatency)
	}
}

func TestMetricsDigestSensitivity(t *testing.T) {
	m := Metrics{Source: "sim", Sent: 100, Delivered: 99}
	m.Finish()
	d := m.Digest()
	if d != m.Digest() {
		t.Fatal("digest not stable")
	}
	m2 := m
	m2.Delivered = 98
	m2.Finish()
	if m2.Digest() == d {
		t.Fatal("digest insensitive to delivered count")
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s sample
	if q := s.quantiles(); q.Count != 0 || q.MaxMs != 0 {
		t.Fatalf("empty sample %+v", q)
	}
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	q := s.quantiles()
	if q.Count != 100 || q.P50Ms != 50 || q.P95Ms != 95 || q.P99Ms != 99 || q.MaxMs != 100 {
		t.Fatalf("quantiles %+v", q)
	}
	if q.MeanMs != 50.5 {
		t.Fatalf("mean %v", q.MeanMs)
	}
	var one sample
	one.add(7)
	if q := one.quantiles(); q.P50Ms != 7 || q.P99Ms != 7 {
		t.Fatalf("single-sample quantiles %+v", q)
	}
}

func TestParityReport(t *testing.T) {
	tl := &Timeline{Clients: []Client{{ID: "a", Relay: -1}}}
	rec := Metrics{Source: "recorded", Sent: 10, Delivered: 10}
	sim := Metrics{Source: "sim", Sent: 10, Delivered: 10, Signaling: Signaling{Uplinks: 4, Batches: 4, L3Messages: 32}}
	live := Metrics{Source: "live", Sent: 10, Delivered: 9}
	for _, m := range []*Metrics{&rec, &sim, &live} {
		m.Finish()
	}
	p := NewParityReport(tl, rec, sim, live)
	if p.TraceDigest != tl.Digest() || p.SimDigest != sim.Digest() {
		t.Fatal("report digests wrong")
	}
	if gap := p.DeliveryGap(); gap < 0.09 || gap > 0.11 {
		t.Fatalf("delivery gap %v", gap)
	}
	out := p.Table().String()
	for _, want := range []string{"delivery ratio", "ack p95", "uplink transactions", "recorded", "sim", "live"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	js, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"traceDigest"`, `"simDigest"`, `"deliveryRatio"`} {
		if !strings.Contains(string(js), want) {
			t.Fatalf("json missing %s", want)
		}
	}
}
