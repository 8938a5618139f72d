package presence

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"d2dhb/internal/hbmsg"
)

func hb(src hbmsg.DeviceID, expiry time.Duration) hbmsg.Heartbeat {
	return hbmsg.Heartbeat{Src: src, Expiry: expiry, Size: 54}
}

func TestUnseenClient(t *testing.T) {
	tr := NewTracker()
	if _, _, seen := tr.Stats("ghost", time.Hour); seen {
		t.Fatal("unseen client reported seen")
	}
	if tr.Availability("ghost", time.Hour) != 0 {
		t.Fatal("unseen client has availability")
	}
	if tr.OnlineAt("ghost", 0) {
		t.Fatal("unseen client online")
	}
	if tr.Clients() != 0 {
		t.Fatal("phantom clients")
	}
}

func TestContinuousHeartbeatsFullAvailability(t *testing.T) {
	tr := NewTracker()
	const expiry = 100 * time.Second
	// Heartbeats every 90 s: the timer never lapses.
	for at := time.Duration(0); at <= 900*time.Second; at += 90 * time.Second {
		if err := tr.Deliver(hb("u", expiry), at); err != nil {
			t.Fatalf("Deliver: %v", err)
		}
	}
	online, flaps, seen := tr.Stats("u", 900*time.Second)
	if !seen || flaps != 0 {
		t.Fatalf("flaps = %d, want 0", flaps)
	}
	if online != 900*time.Second {
		t.Fatalf("online = %v, want 900s", online)
	}
	if got := tr.Availability("u", 900*time.Second); math.Abs(got-1) > 1e-9 {
		t.Fatalf("availability = %v, want 1", got)
	}
}

func TestGapCausesFlapAndOfflineTime(t *testing.T) {
	tr := NewTracker()
	const expiry = 100 * time.Second
	if err := tr.Deliver(hb("u", expiry), 0); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	// Next heartbeat 300 s later: offline from 100 s to 300 s.
	if err := tr.Deliver(hb("u", expiry), 300*time.Second); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	online, flaps, _ := tr.Stats("u", 400*time.Second)
	if flaps != 1 {
		t.Fatalf("flaps = %d, want 1", flaps)
	}
	if online != 200*time.Second { // [0,100] + [300,400]
		t.Fatalf("online = %v, want 200s", online)
	}
	if got := tr.Availability("u", 400*time.Second); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("availability = %v, want 0.5", got)
	}
}

func TestHorizonClampsTailOnlineTime(t *testing.T) {
	tr := NewTracker()
	if err := tr.Deliver(hb("u", 100*time.Second), 0); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	online, _, _ := tr.Stats("u", 40*time.Second)
	if online != 40*time.Second {
		t.Fatalf("online = %v, want 40s (clamped)", online)
	}
	online, _, _ = tr.Stats("u", time.Hour)
	if online != 100*time.Second {
		t.Fatalf("online = %v, want 100s (deadline bound)", online)
	}
}

func TestOnlineAt(t *testing.T) {
	tr := NewTracker()
	if err := tr.Deliver(hb("u", 60*time.Second), 10*time.Second); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if tr.OnlineAt("u", 5*time.Second) {
		t.Fatal("online before first delivery")
	}
	if !tr.OnlineAt("u", 30*time.Second) {
		t.Fatal("offline while timer running")
	}
	if tr.OnlineAt("u", 80*time.Second) {
		t.Fatal("online after timer lapsed")
	}
}

func TestDeliverValidation(t *testing.T) {
	tr := NewTracker()
	if err := tr.Deliver(hb("u", time.Minute), -1); err == nil {
		t.Fatal("negative time accepted")
	}
	if err := tr.Deliver(hb("u", time.Minute), 100*time.Second); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if err := tr.Deliver(hb("u", time.Minute), 50*time.Second); err == nil {
		t.Fatal("out-of-order delivery accepted")
	}
}

func TestShorterExpiryDoesNotShrinkDeadline(t *testing.T) {
	// Two apps on one device: a long-expiry heartbeat followed by a
	// short-expiry one must not cut presence short.
	tr := NewTracker()
	if err := tr.Deliver(hb("u", 300*time.Second), 0); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if err := tr.Deliver(hb("u", 10*time.Second), 5*time.Second); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if !tr.OnlineAt("u", 200*time.Second) {
		t.Fatal("short-expiry heartbeat shrank the deadline")
	}
}

// TestQuickAvailabilityBounds property-checks that availability is always
// within [0, 1] and that denser delivery schedules never reduce it.
func TestQuickAvailabilityBounds(t *testing.T) {
	prop := func(gaps []uint16) bool {
		tr := NewTracker()
		const expiry = 60 * time.Second
		at := time.Duration(0)
		times := []time.Duration{0}
		for _, g := range gaps {
			at += time.Duration(g%200) * time.Second
			times = append(times, at)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for _, tm := range times {
			if err := tr.Deliver(hb("u", expiry), tm); err != nil {
				return false
			}
		}
		horizon := times[len(times)-1] + time.Minute
		a := tr.Availability("u", horizon)
		return a >= 0 && a <= 1+1e-9
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(40))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOnlinePlusOfflineEqualsSpan property-checks the accounting
// identity: online time plus implied offline time equals the tracked span.
func TestQuickOnlinePlusOfflineEqualsSpan(t *testing.T) {
	prop := func(gaps []uint16) bool {
		tr := NewTracker()
		const expiry = 45 * time.Second
		at := time.Duration(0)
		var deliveries []time.Duration
		deliveries = append(deliveries, 0)
		for _, g := range gaps {
			at += time.Duration(g%300+1) * time.Second
			deliveries = append(deliveries, at)
		}
		var offline time.Duration
		prevDeadline := deliveries[0] + expiry
		for _, tm := range deliveries {
			if err := tr.Deliver(hb("u", expiry), tm); err != nil {
				return false
			}
		}
		for _, tm := range deliveries[1:] {
			if tm > prevDeadline {
				offline += tm - prevDeadline
			}
			prevDeadline = tm + expiry
		}
		horizon := deliveries[len(deliveries)-1] // stop at last delivery
		online, _, _ := tr.Stats("u", horizon)
		span := horizon - deliveries[0]
		return online+offline == span
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTrackerTimerIsTheClientsTimer: a timer resolved once through Timer is
// the one the tracker's own queries and Deliver use — fed directly, by
// Tracker.Deliver or both, a client has one history.
func TestTrackerTimerIsTheClientsTimer(t *testing.T) {
	const expiry = 100 * time.Second
	byHandle, byID := NewTracker(), NewTracker()
	timer := byHandle.Timer("u")
	if byHandle.Timer("u") != timer {
		t.Fatal("a second Timer call returned a different timer")
	}
	if _, _, seen := byHandle.Stats("u", time.Hour); seen {
		t.Fatal("a registered client that never delivered reads as seen")
	}
	for i, at := range []time.Duration{0, 90 * time.Second, 400 * time.Second, 450 * time.Second} {
		var err error
		if i%2 == 0 {
			err = timer.Deliver(at, expiry)
		} else {
			err = byHandle.Deliver(hb("u", expiry), at)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := byID.Deliver(hb("u", expiry), at); err != nil {
			t.Fatal(err)
		}
	}
	const horizon = 600 * time.Second
	on1, flaps1, seen1 := byHandle.Stats("u", horizon)
	on2, flaps2, seen2 := byID.Stats("u", horizon)
	if on1 != on2 || flaps1 != flaps2 || !seen1 || !seen2 || flaps1 != 1 {
		t.Fatalf("by handle (%v, %d, %v), by id (%v, %d, %v); want equal with one flap", on1, flaps1, seen1, on2, flaps2, seen2)
	}
	if byHandle.Availability("u", horizon) != byID.Availability("u", horizon) {
		t.Fatal("availability differs between the two ways in")
	}
}
