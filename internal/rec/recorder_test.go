package rec

import (
	"strings"
	"sync"
	"testing"
	"time"

	"d2dhb/internal/trace"
)

var t0 = time.Unix(1_700_000_000, 0)

// live is device's trace event of kind for heartbeat seq at wall instant at.
func live(kind trace.Kind, device string, seq uint64, at time.Time) trace.Event {
	return trace.Event{At: trace.Unix(at), Device: device, Kind: kind, Seq: seq}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Start(t0, 1)
	r.SetRelay(time.Minute, 5)
	r.AddClient(Client{ID: "x"})
	r.AddFault(FaultWindow{Kind: "latency"})
	r.Emit(live(trace.KindD2DSend, "x", 1, t0))
	if _, err := r.Timeline(); err == nil {
		t.Fatal("nil recorder produced a timeline")
	}
}

func TestRecorderLifecycle(t *testing.T) {
	r := NewRecorder()
	if _, err := r.Timeline(); err == nil {
		t.Fatal("unstarted recorder produced a timeline")
	}
	r.AddClient(Client{ID: "ue-a", App: "chat", Period: time.Minute, Relay: -1})
	// Events before Start are dropped.
	r.Emit(live(trace.KindDirectSend, "ue-a", 1, t0))

	r.Start(t0, 99)
	r.Start(t0.Add(time.Hour), 1) // second Start ignored
	r.SetRelay(30*time.Second, 5)
	r.AddClient(Client{ID: "ue-b", App: "push", Period: time.Minute, Path: PathRelayed, Relay: 0})
	r.AddFault(FaultWindow{Kind: "latency", From: 2 * time.Second, To: 4 * time.Second})

	// Recorded deliberately out of order; before-start and unknown-device
	// events must be dropped.
	r.Emit(live(trace.KindAck, "ue-b", 1, t0.Add(3*time.Second)))
	r.Emit(live(trace.KindD2DSend, "ue-b", 1, t0.Add(1*time.Second)))
	r.Emit(live(trace.KindDirectSend, "ue-a", 1, t0.Add(1*time.Second)))
	r.Emit(live(trace.KindTimeout, "ue-a", 1, t0.Add(5*time.Second)))
	r.Emit(live(trace.KindDirectSend, "ue-z", 1, t0.Add(1*time.Second)))
	r.Emit(live(trace.KindDirectSend, "ue-a", 0, t0.Add(-time.Second)))

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
	for w := 0; w < workers; w++ {
		r.AddClient(Client{ID: strings.Repeat("w", w+1), Relay: -1})
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				at := t0.Add(time.Duration(i*workers+w) * time.Millisecond)
				r.Emit(live(trace.KindDirectSend, strings.Repeat("w", w+1), uint64(i), at))
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
	r.AddClient(Client{ID: "a", Relay: -1})
	r.AddClient(Client{ID: "b", Relay: -1})
	// a: two acked heartbeats at 10ms and 30ms latency; b: one timeout and
	// one orphan ack (no matching send).
	r.Emit(live(trace.KindDirectSend, "a", 1, t0))
	r.Emit(live(trace.KindAck, "a", 1, t0.Add(10*time.Millisecond)))
	r.Emit(live(trace.KindDirectSend, "a", 2, t0.Add(time.Second)))
	r.Emit(live(trace.KindAck, "a", 2, t0.Add(time.Second+30*time.Millisecond)))
	r.Emit(live(trace.KindDirectSend, "b", 1, t0.Add(time.Second)))
	r.Emit(live(trace.KindTimeout, "b", 1, t0.Add(2*time.Second)))
	r.Emit(live(trace.KindAck, "b", 7, t0.Add(3*time.Second)))

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

// TestEmitFirstSend pins Emit's rule: a heartbeat's send is the first of
// its sends, in emission order, that reached the wire, at that send's
// instant; every ack and write-off is recorded; nothing else is.
func TestEmitFirstSend(t *testing.T) {
	origin, sweep := t0.Add(time.Second), t0.Add(5*time.Second)
	ack := live(trace.KindAck, "ue", 1, t0.Add(6*time.Second))
	serverAck := ack
	serverAck.Reason = trace.ReasonServerAck
	at := func(w time.Time) time.Duration { return w.Sub(t0) }
	for _, tc := range []struct {
		name string
		evs  []trace.Event
		want []Event
	}{
		{"relay send", []trace.Event{
			live(trace.KindGenerated, "ue", 1, origin),
			live(trace.KindD2DSend, "ue", 1, origin),
		}, []Event{{At: at(origin), Kind: EvSend, Seq: 1}}},
		{"failed relay write, then fallback at its sweep", []trace.Event{
			live(trace.KindD2DFail, "ue", 1, origin),
			live(trace.KindFallback, "ue", 1, sweep),
		}, []Event{{At: at(sweep), Kind: EvSend, Seq: 1}}},
		{"fallback after a wire send", []trace.Event{
			live(trace.KindD2DSend, "ue", 1, origin),
			live(trace.KindFallback, "ue", 1, sweep),
		}, []Event{{At: at(origin), Kind: EvSend, Seq: 1}}},
		{"relay write returning after the fallback", []trace.Event{
			live(trace.KindFallback, "ue", 1, sweep),
			ack,
			live(trace.KindD2DSend, "ue", 1, origin),
		}, []Event{{At: at(sweep), Kind: EvSend, Seq: 1}, {At: 6 * time.Second, Kind: EvAck, Seq: 1}}},
		{"direct send acked before its emission", []trace.Event{
			serverAck,
			live(trace.KindDirectSend, "ue", 1, origin),
		}, []Event{{At: at(origin), Kind: EvSend, Seq: 1}, {At: 6 * time.Second, Kind: EvAck, Seq: 1}}},
		{"write-off with no send", []trace.Event{
			live(trace.KindTimeout, "ue", 1, sweep),
		}, []Event{{At: at(sweep), Kind: EvTimeout, Seq: 1}}},
		{"feedback ack", []trace.Event{
			live(trace.KindD2DSend, "ue", 1, origin), ack,
		}, []Event{{At: at(origin), Kind: EvSend, Seq: 1}, {At: 6 * time.Second, Kind: EvAck, Seq: 1}}},
		{"server ack", []trace.Event{
			live(trace.KindDirectSend, "ue", 1, origin), serverAck,
		}, []Event{{At: at(origin), Kind: EvSend, Seq: 1}, {At: 6 * time.Second, Kind: EvAck, Seq: 1}}},
		{"unknown ID", []trace.Event{
			live(trace.KindD2DSend, "stranger", 1, origin),
			live(trace.KindAck, "stranger", 1, sweep),
		}, nil},
		{"before Start", []trace.Event{
			live(trace.KindDirectSend, "ue", 1, t0.Add(-time.Millisecond)),
			live(trace.KindTimeout, "ue", 1, t0.Add(-time.Nanosecond)),
		}, nil},
		{"other kinds", []trace.Event{
			live(trace.KindCollect, "ue", 1, origin),
			live(trace.KindFlush, "ue", 1, origin),
			live(trace.KindDelivery, "ue", 1, origin),
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecorder()
			r.AddClient(Client{ID: "ue", Relay: -1})
			r.Start(t0, 0)
			for _, ev := range tc.evs {
				r.Emit(ev)
			}
			tl, err := r.Timeline()
			if err != nil {
				t.Fatal(err)
			}
			if len(tl.Events) != len(tc.want) {
				t.Fatalf("recorded %+v, want %+v", tl.Events, tc.want)
			}
			for i := range tc.want {
				if tl.Events[i] != tc.want[i] {
					t.Fatalf("event %d = %+v, want %+v", i, tl.Events[i], tc.want[i])
				}
			}
		})
	}
}

// TestEmitConcurrentFirstSend has every heartbeat's sends, ack and the
// sends of other heartbeats emitted from several goroutines at once, as a
// UE's stepper, its sweep and its links' readers do: each heartbeat still
// gets exactly one EvSend and one EvAck. Run with -race.
func TestEmitConcurrentFirstSend(t *testing.T) {
	r := NewRecorder()
	r.Start(t0, 0)
	const ues, seqs = 4, 300
	for u := 0; u < ues; u++ {
		r.AddClient(Client{ID: strings.Repeat("u", u+1), Relay: -1})
	}
	kinds := []trace.Kind{trace.KindD2DSend, trace.KindFallback, trace.KindDirectSend, trace.KindAck}
	var wg sync.WaitGroup
	for _, kind := range kinds {
		for u := 0; u < ues; u++ {
			wg.Add(1)
			go func(kind trace.Kind, id string) {
				defer wg.Done()
				for seq := uint64(1); seq <= seqs; seq++ {
					r.Emit(live(kind, id, seq, t0.Add(time.Duration(seq)*time.Millisecond)))
				}
			}(kind, strings.Repeat("u", u+1))
		}
	}
	wg.Wait()
	tl, err := r.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[EventKind]int)
	seen := make(map[[2]uint64]int)
	for _, e := range tl.Events {
		counts[e.Kind]++
		if e.Kind == EvSend {
			seen[[2]uint64{uint64(e.Client), e.Seq}]++
		}
	}
	if counts[EvSend] != ues*seqs || counts[EvAck] != ues*seqs || len(seen) != ues*seqs {
		t.Fatalf("recorded %v over %d distinct sends, want %d sends and acks, one per heartbeat", counts, len(seen), ues*seqs)
	}
}

func TestValidateRejectsRepeatedID(t *testing.T) {
	tl := &Timeline{Clients: []Client{{ID: "ue", Relay: -1}, {ID: "ue", Path: PathRelayed, Relay: 0}}}
	if err := tl.Validate(); err == nil || !strings.Contains(err.Error(), "repeats ID") {
		t.Fatalf("Validate = %v, want a repeated-ID error", err)
	}
	if _, err := Decode(tl.Append(nil)); err == nil {
		t.Fatal("a trace with a repeated client ID decoded")
	}
	r := NewRecorder()
	r.Start(t0, 0)
	r.AddClient(tl.Clients[0])
	r.AddClient(tl.Clients[1])
	if _, err := r.Timeline(); err == nil {
		t.Fatal("a recording with a repeated client ID snapshotted")
	}
}
