package core

import (
	"testing"
	"time"

	"d2dhb/internal/cellular"
	"d2dhb/internal/geo"
	"d2dhb/internal/trace"
)

func TestAvailabilityPerfectInHappyPath(t *testing.T) {
	sim, err := PairScenario(Options{Seed: 1, Duration: 6 * std().Period}, std(), 1, 1, 8)
	if err != nil {
		t.Fatalf("PairScenario: %v", err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range rep.Devices {
		if d.Availability < 0.999 {
			t.Errorf("%s availability = %v, want 1 (flaps %d)", d.ID, d.Availability, d.PresenceFlaps)
		}
		if d.PresenceFlaps != 0 {
			t.Errorf("%s flapped %d times", d.ID, d.PresenceFlaps)
		}
	}
}

func TestAvailabilityDropsWhenRelayDies(t *testing.T) {
	// Relay dies right after collecting the second heartbeat; the UE's
	// fallback delivers late, so the server sees an offline gap.
	sim, err := New(Options{Seed: 2, Duration: 8 * std().Period})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	relay, err := sim.AddRelay(RelaySpec{ID: "relay", Profile: std(), Capacity: 8})
	if err != nil {
		t.Fatalf("AddRelay: %v", err)
	}
	ue, err := sim.AddUE(UESpec{
		ID: "ue", Apps: stdApps(),
		Mobility:    geo.Static{P: geo.Point{X: 1}},
		StartOffset: 20 * time.Second,
	})
	if err != nil {
		t.Fatalf("AddUE: %v", err)
	}
	// Kill the relay mid-second-period, after the second forward.
	if _, err := sim.Scheduler().At(std().Period+30*time.Second, relay.Stop); err != nil {
		t.Fatalf("At: %v", err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := ue.Stats().FallbackResends; got < 1 {
		t.Fatalf("fallbacks = %d, want >= 1", got)
	}
	ueRep, _ := rep.Device("ue")
	if ueRep.PresenceFlaps < 1 {
		t.Fatalf("UE never flapped offline despite relay death (availability %v)", ueRep.Availability)
	}
	if ueRep.Availability >= 1 {
		t.Fatalf("availability = %v, want < 1", ueRep.Availability)
	}
	// After recovery the UE goes direct: availability stays high overall.
	if ueRep.Availability < 0.5 {
		t.Fatalf("availability = %v, want mostly online", ueRep.Availability)
	}
}

func TestOnDeliverObserverChainsWithPresence(t *testing.T) {
	// A user observer must receive every delivery while presence tracking
	// keeps working underneath.
	sim, err := PairScenario(Options{Seed: 3, Duration: 2 * std().Period}, std(), 1, 1, 8)
	if err != nil {
		t.Fatalf("PairScenario: %v", err)
	}
	seen := 0
	sim.OnDeliver(func(d cellular.Delivery) { seen++ })
	rep, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if seen != rep.Deliveries {
		t.Fatalf("observer saw %d deliveries, report has %d", seen, rep.Deliveries)
	}
	ue, _ := rep.Device("ue-01")
	if ue.Availability <= 0 {
		t.Fatal("presence tracking broken with user observer installed")
	}
}

func TestTracerCapturesFullLifecycle(t *testing.T) {
	var rec trace.Recorder
	opts := Options{Seed: 1, Duration: 3 * std().Period, Tracer: &rec}
	sim, err := PairScenario(opts, std(), 1, 1, 8)
	if err != nil {
		t.Fatalf("PairScenario: %v", err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ue, _ := rep.Device("ue-01")

	for _, want := range []struct {
		kind trace.Kind
		n    int
	}{
		{trace.KindGenerated, ue.UE.Generated + 3 /* relay own heartbeats? none: relays don't emit generated */},
		{trace.KindD2DSend, ue.UE.SentViaD2D},
		{trace.KindCollect, ue.UE.SentViaD2D},
		{trace.KindAck, ue.UE.AcksReceived},
	} {
		got := len(rec.ByKind(want.kind))
		if want.kind == trace.KindGenerated {
			// Only UEs emit hb-generated; the relay's own heartbeats are
			// visible via flush events.
			if got != ue.UE.Generated {
				t.Errorf("%s events = %d, want %d", want.kind, got, ue.UE.Generated)
			}
			continue
		}
		if got != want.n {
			t.Errorf("%s events = %d, want %d", want.kind, got, want.n)
		}
	}
	// One match, flushes with batch sizes, and every delivery traced.
	if got := len(rec.ByKind(trace.KindMatch)); got != 1 {
		t.Errorf("match events = %d, want 1", got)
	}
	if got := len(rec.ByKind(trace.KindDelivery)); got != rep.Deliveries {
		t.Errorf("delivery events = %d, want %d", got, rep.Deliveries)
	}
	for _, f := range rec.ByKind(trace.KindFlush) {
		if f.N < 1 || f.Reason == "" {
			t.Errorf("flush event malformed: %+v", f)
		}
	}
	// All events carry device and non-decreasing-ish timestamps.
	for _, ev := range rec.Events() {
		if ev.Device == "" {
			t.Fatalf("event without device: %+v", ev)
		}
	}
}
