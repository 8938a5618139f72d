package device

import (
	"errors"
	"slices"
	"testing"
	"time"

	"d2dhb/internal/cellular"
	"d2dhb/internal/d2d"
	"d2dhb/internal/energy"
	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/matching"
	"d2dhb/internal/radio"
	"d2dhb/internal/rrc"
	"d2dhb/internal/sched"
	"d2dhb/internal/simtime"
	"d2dhb/internal/trace"
)

// rig is a miniature end-to-end wiring of the substrates for device tests.
type rig struct {
	sched  *simtime.Scheduler
	medium *d2d.Medium
	bs     *cellular.BaseStation
	model  energy.Model
}

func newRig(t *testing.T, seed int64) *rig {
	t.Helper()
	s := simtime.NewScheduler(seed)
	model := energy.DefaultModel()
	medium, err := d2d.NewMedium(s, d2d.Config{Profile: radio.WiFiDirectProfile(), Model: model})
	if err != nil {
		t.Fatalf("NewMedium: %v", err)
	}
	bs, err := cellular.NewBaseStation(s)
	if err != nil {
		t.Fatalf("NewBaseStation: %v", err)
	}
	return &rig{sched: s, medium: medium, bs: bs, model: model}
}

func (r *rig) addRelay(t *testing.T, id hbmsg.DeviceID, mob geo.Mobility, cfg RelayConfig) (*Relay, *energy.Ledger) {
	t.Helper()
	led := energy.NewLedger()
	node, err := r.medium.Join(id, d2d.RoleRelay, mob, led)
	if err != nil {
		t.Fatalf("Join relay: %v", err)
	}
	modem, err := r.bs.Attach(id, r.model, rrc.DefaultConfig(), led)
	if err != nil {
		t.Fatalf("Attach relay: %v", err)
	}
	cfg.ID = id
	relay, err := NewRelay(r.sched, node, modem, cfg)
	if err != nil {
		t.Fatalf("NewRelay: %v", err)
	}
	if err := relay.Start(); err != nil {
		t.Fatalf("relay Start: %v", err)
	}
	return relay, led
}

func (r *rig) addUE(t *testing.T, id hbmsg.DeviceID, mob geo.Mobility, cfg UEConfig) (*UE, *energy.Ledger) {
	t.Helper()
	led := energy.NewLedger()
	node, err := r.medium.Join(id, d2d.RoleUE, mob, led)
	if err != nil {
		t.Fatalf("Join ue: %v", err)
	}
	modem, err := r.bs.Attach(id, r.model, rrc.DefaultConfig(), led)
	if err != nil {
		t.Fatalf("Attach ue: %v", err)
	}
	cfg.ID = id
	if cfg.Rules == nil {
		cfg.Rules = &UERules{}
	}
	if cfg.Rules.Match.MaxDistance == 0 {
		cfg.Rules.Match = matching.DefaultConfig()
	}
	ue, err := NewUE(r.sched, node, modem, cfg)
	if err != nil {
		t.Fatalf("NewUE: %v", err)
	}
	if err := ue.Start(); err != nil {
		t.Fatalf("ue Start: %v", err)
	}
	return ue, led
}

func std() hbmsg.AppProfile { return hbmsg.StandardHeartbeat() }

// apps lists a UE's apps, primary first.
func apps(p ...hbmsg.AppProfile) []hbmsg.AppProfile { return p }

// defaultRules are a D2D UE's rules with the default relay selection.
func defaultRules() *UERules { return &UERules{Match: matching.DefaultConfig()} }

func TestRelayConfigValidation(t *testing.T) {
	r := newRig(t, 1)
	led := energy.NewLedger()
	node, err := r.medium.Join("x", d2d.RoleRelay, geo.Static{}, led)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	modem, err := r.bs.Attach("x", r.model, rrc.DefaultConfig(), led)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := NewRelay(nil, node, modem, RelayConfig{ID: "x", Profile: std(), Capacity: 5}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if _, err := NewRelay(r.sched, node, modem, RelayConfig{Profile: std(), Capacity: 5}); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := NewRelay(r.sched, node, modem, RelayConfig{ID: "x", Profile: std(), Capacity: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewRelay(r.sched, node, modem, RelayConfig{ID: "x", Profile: std(), Capacity: 5, StartOffset: -1}); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestUEConfigValidation(t *testing.T) {
	r := newRig(t, 1)
	led := energy.NewLedger()
	node, err := r.medium.Join("x", d2d.RoleUE, geo.Static{}, led)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	modem, err := r.bs.Attach("x", r.model, rrc.DefaultConfig(), led)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	good := UEConfig{ID: "x", Apps: apps(std()), Rules: defaultRules()}
	if _, err := NewUE(r.sched, node, nil, good); err == nil {
		t.Fatal("nil modem accepted")
	}
	bad := good
	bad.ID = ""
	if _, err := NewUE(r.sched, node, modem, bad); err == nil {
		t.Fatal("empty id accepted")
	}
	bad = good
	bad.Apps = nil
	if _, err := NewUE(r.sched, node, modem, bad); err == nil {
		t.Fatal("ue without apps accepted")
	}
	bad = good
	bad.Rules = nil
	if _, err := NewUE(r.sched, node, modem, bad); err == nil {
		t.Fatal("ue without rules accepted")
	}
	bad = good
	bad.Rules = &UERules{Match: matching.DefaultConfig(), FeedbackTimeout: -time.Second}
	if _, err := NewUE(r.sched, node, modem, bad); err == nil {
		t.Fatal("negative feedback timeout accepted")
	}
	bad = good
	bad.Rules = &UERules{Match: matching.DefaultConfig()}
	bad.Rules.Match.MaxDistance = -1
	if _, err := NewUE(r.sched, node, modem, bad); err == nil {
		t.Fatal("invalid match config accepted")
	}
}

func TestSingleUESingleRelayHappyPath(t *testing.T) {
	// The paper's core experiment: one relay, one UE 1 m apart. The UE
	// forwards every heartbeat over D2D, the relay aggregates it with its
	// own heartbeat into one cellular connection per period, and the UE
	// receives feedback for every message.
	r := newRig(t, 42)
	relay, _ := r.addRelay(t, "relay", geo.Static{P: geo.Point{X: 0}}, RelayConfig{
		Profile: std(), Capacity: 8,
	})
	ue, _ := r.addUE(t, "ue", geo.Static{P: geo.Point{X: 1}}, UEConfig{
		Apps: apps(std()), StartOffset: 10 * time.Second,
	})

	horizon := 8 * std().Period // 8 relay periods
	if err := r.sched.RunUntil(horizon); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}

	us, rs := ue.Stats(), relay.Stats()
	if us.Generated < 7 {
		t.Fatalf("UE generated %d heartbeats, want >= 7", us.Generated)
	}
	if us.SentViaD2D != us.Generated {
		t.Fatalf("sent via D2D %d of %d generated", us.SentViaD2D, us.Generated)
	}
	if us.DirectCellular != 0 || us.FallbackResends != 0 {
		t.Fatalf("unexpected cellular sends: direct=%d fallback=%d", us.DirectCellular, us.FallbackResends)
	}
	// The last forwarded message may still be pending at the horizon.
	if us.AcksReceived < us.SentViaD2D-1 {
		t.Fatalf("acks %d, want >= %d", us.AcksReceived, us.SentViaD2D-1)
	}
	if rs.Collected < us.SentViaD2D-1 {
		t.Fatalf("relay collected %d, want >= %d", rs.Collected, us.SentViaD2D-1)
	}
	if rs.Credits != rs.ForwardedSent {
		t.Fatalf("credits %d != forwarded %d", rs.Credits, rs.ForwardedSent)
	}

	// Signaling: the UE's modem must have zero transmissions; the relay
	// carries everything.
	ueModem, _ := r.bs.Modem("ue")
	if got := ueModem.Counters().Transmissions; got != 0 {
		t.Fatalf("UE cellular transmissions = %d, want 0", got)
	}
	relayModem, _ := r.bs.Modem("relay")
	if got := relayModem.Counters().Transmissions; got != rs.Flushes {
		t.Fatalf("relay transmissions %d != flushes %d", got, rs.Flushes)
	}
	// One aggregated transmission per period.
	if rs.Flushes > 8 {
		t.Fatalf("flushes = %d, want <= 8 (one per period)", rs.Flushes)
	}

	// Deliveries: everything flushed must be on time.
	total, late := r.bs.Deliveries()
	if total == 0 {
		t.Fatal("no deliveries")
	}
	if late != 0 {
		t.Fatalf("late deliveries = %d, want 0", late)
	}
}

func TestRelayCapacityTriggersEarlyFlush(t *testing.T) {
	r := newRig(t, 7)
	relay, _ := r.addRelay(t, "relay", geo.Static{}, RelayConfig{
		Profile: std(), Capacity: 2,
	})
	// Three UEs forward within one relay period; capacity 2 flushes early.
	// The third UE sees the relay advertising zero free capacity and sends
	// directly over cellular instead of connecting.
	ues := make([]*UE, 0, 3)
	for i, off := range []time.Duration{5 * time.Second, 10 * time.Second, 15 * time.Second} {
		id := hbmsg.DeviceID(rune('a' + i))
		ue, _ := r.addUE(t, id, geo.Static{P: geo.Point{X: float64(i) + 1}}, UEConfig{
			Apps: apps(std()), StartOffset: off,
		})
		ues = append(ues, ue)
	}
	if err := r.sched.RunUntil(60 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	rs := relay.Stats()
	if rs.Flushes != 1 {
		t.Fatalf("flushes = %d, want 1 (capacity flush)", rs.Flushes)
	}
	if rs.Collected != 2 {
		t.Fatalf("collected = %d, want 2", rs.Collected)
	}
	if got := relay.Policy().LastFlushReason(); got != sched.ReasonCapacity {
		t.Fatalf("flush reason = %v, want capacity", got)
	}
	third := ues[2].Stats()
	if third.Matches != 0 || third.DirectCellular != 1 {
		t.Fatalf("third UE stats = %+v, want no match and 1 direct send", third)
	}
}

func TestConnectedUEGoesDirectWhenWindowClosed(t *testing.T) {
	// A UE that is already connected when the window closes sees the
	// relay advertising zero capacity and sends directly over cellular —
	// on time, with no wasted D2D transfer or late fallback.
	r := newRig(t, 8)
	fast := std()
	fast.Period = 100 * time.Second // UE beats faster than the relay window
	relay, _ := r.addRelay(t, "relay", geo.Static{}, RelayConfig{
		Profile: std(), Capacity: 1,
	})
	ue, _ := r.addUE(t, "ue", geo.Static{P: geo.Point{X: 1}}, UEConfig{
		Apps: apps(fast), StartOffset: 5 * time.Second,
	})
	if err := r.sched.RunUntil(260 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	rs, us := relay.Stats(), ue.Stats()
	if rs.Collected != 1 {
		t.Fatalf("collected = %d, want 1 (capacity 1)", rs.Collected)
	}
	// Heartbeats at 105 s and 205 s hit the closed window and go direct.
	if us.RelayBusy != 2 {
		t.Fatalf("relay-busy sends = %d, want 2", us.RelayBusy)
	}
	if us.DirectCellular != 2 {
		t.Fatalf("direct sends = %d, want 2", us.DirectCellular)
	}
	if us.FallbackResends != 0 {
		t.Fatalf("fallbacks = %d, want 0 (busy relay detected up front)", us.FallbackResends)
	}
	total, late := r.bs.Deliveries()
	if late != 0 {
		t.Fatalf("late = %d of %d, want 0", late, total)
	}
}

func TestRelayFailureTriggersUEFallback(t *testing.T) {
	// Section III-A: if the relay dies before transmitting, the UE gets no
	// feedback and resends over cellular.
	r := newRig(t, 9)
	relay, _ := r.addRelay(t, "relay", geo.Static{}, RelayConfig{
		Profile: std(), Capacity: 8,
	})
	ue, ueLed := r.addUE(t, "ue", geo.Static{P: geo.Point{X: 1}}, UEConfig{
		Apps: apps(std()), StartOffset: 10 * time.Second,
	})

	// Let the first heartbeat be forwarded, then kill the relay before its
	// flush (flush would happen at 270 s).
	if _, err := r.sched.At(20*time.Second, relay.Stop); err != nil {
		t.Fatalf("At: %v", err)
	}
	if err := r.sched.RunUntil(310 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}

	us := ue.Stats()
	if us.SentViaD2D != 1 {
		t.Fatalf("sent via D2D = %d, want 1", us.SentViaD2D)
	}
	if us.FallbackResends != 1 {
		t.Fatalf("fallback resends = %d, want 1", us.FallbackResends)
	}
	if us.AcksReceived != 0 {
		t.Fatalf("acks = %d, want 0", us.AcksReceived)
	}
	if ueLed.Phase(energy.PhaseFallback) == 0 {
		t.Fatal("fallback energy not charged")
	}
	// The resent heartbeat reaches the network, albeit late.
	total, late := r.bs.Deliveries()
	if total == 0 || late == 0 {
		t.Fatalf("deliveries = %d (%d late), want the late fallback delivery", total, late)
	}
}

func TestUEOutOfRangeSendsDirect(t *testing.T) {
	r := newRig(t, 3)
	r.addRelay(t, "relay", geo.Static{}, RelayConfig{Profile: std(), Capacity: 8})
	ue, _ := r.addUE(t, "ue", geo.Static{P: geo.Point{X: 500}}, UEConfig{
		Apps: apps(std()), StartOffset: 5 * time.Second,
	})
	if err := r.sched.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	us := ue.Stats()
	if us.DirectCellular != 1 {
		t.Fatalf("direct sends = %d, want 1", us.DirectCellular)
	}
	if us.MatchFailures != 1 {
		t.Fatalf("match failures = %d, want 1", us.MatchFailures)
	}
	ueModem, _ := r.bs.Modem("ue")
	if ueModem.Counters().Transmissions != 1 {
		t.Fatal("UE modem did not transmit")
	}
}

func TestUEPrejudgmentRejectsFarRelay(t *testing.T) {
	// A relay inside radio range but beyond the 15 m prejudgment distance
	// must be rejected (Fig. 12: D2D beyond ~15 m wastes energy).
	r := newRig(t, 3)
	r.addRelay(t, "relay", geo.Static{P: geo.Point{X: 25}}, RelayConfig{Profile: std(), Capacity: 8})
	ue, _ := r.addUE(t, "ue", geo.Static{}, UEConfig{
		Apps: apps(std()), StartOffset: 5 * time.Second,
	})
	if err := r.sched.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	us := ue.Stats()
	if us.Matches != 0 {
		t.Fatalf("matches = %d, want 0 (prejudgment)", us.Matches)
	}
	if us.DirectCellular != 1 {
		t.Fatalf("direct sends = %d, want 1", us.DirectCellular)
	}
}

func TestDisableD2DIsOriginalSystem(t *testing.T) {
	r := newRig(t, 5)
	r.addRelay(t, "relay", geo.Static{}, RelayConfig{Profile: std(), Capacity: 8})
	ue, led := r.addUE(t, "ue", geo.Static{P: geo.Point{X: 1}}, UEConfig{
		Apps: apps(std()), StartOffset: 5 * time.Second, Rules: &UERules{DisableD2D: true},
	})
	if err := r.sched.RunUntil(std().Period * 3); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	us := ue.Stats()
	if us.SentViaD2D != 0 || us.Scans != 0 {
		t.Fatalf("D2D activity in original system: %+v", us)
	}
	if us.DirectCellular != us.Generated {
		t.Fatalf("direct %d != generated %d", us.DirectCellular, us.Generated)
	}
	if led.Phase(energy.PhaseDiscovery) != 0 || led.Phase(energy.PhaseD2DSend) != 0 {
		t.Fatal("D2D energy charged in original system")
	}
}

func TestMobileUELosesLinkAndFallsBack(t *testing.T) {
	// The UE walks out of D2D range mid-run; subsequent forwards fail at
	// the link and go direct over cellular.
	r := newRig(t, 11)
	r.addRelay(t, "relay", geo.Static{}, RelayConfig{Profile: std(), Capacity: 8})
	led := energy.NewLedger()
	mob := geo.Line{From: geo.Point{X: 1}, To: geo.Point{X: 400}, Speed: 2, Start: 20 * time.Second}
	node, err := r.medium.Join("ue", d2d.RoleUE, mob, led)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	modem, err := r.bs.Attach("ue", r.model, rrc.DefaultConfig(), led)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	ue, err := NewUE(r.sched, node, modem, UEConfig{
		ID: "ue", Apps: apps(std()), Rules: defaultRules(), StartOffset: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewUE: %v", err)
	}
	if err := ue.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := r.sched.RunUntil(std().Period * 4); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	us := ue.Stats()
	if us.SentViaD2D < 1 {
		t.Fatalf("first heartbeat not forwarded: %+v", us)
	}
	if us.DirectCellular+us.D2DSendFailures == 0 {
		t.Fatalf("no fallback after walking out of range: %+v", us)
	}
	if ue.Connected() {
		t.Fatal("UE still connected after leaving range")
	}
}

func TestUEStopCancelsTimers(t *testing.T) {
	r := newRig(t, 13)
	r.addRelay(t, "relay", geo.Static{}, RelayConfig{Profile: std(), Capacity: 8})
	ue, _ := r.addUE(t, "ue", geo.Static{P: geo.Point{X: 1}}, UEConfig{
		Apps: apps(std()), StartOffset: 5 * time.Second,
	})
	if _, err := r.sched.At(10*time.Second, ue.Stop); err != nil {
		t.Fatalf("At: %v", err)
	}
	if err := r.sched.RunUntil(std().Period * 2); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	us := ue.Stats()
	if us.Generated != 1 {
		t.Fatalf("generated = %d after Stop, want 1", us.Generated)
	}
	if us.FallbackResends != 0 {
		t.Fatalf("fallback fired after Stop: %+v", us)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (UEStats, RelayStats, int) {
		r := newRig(t, 99)
		relay, _ := r.addRelay(t, "relay", geo.Static{}, RelayConfig{Profile: std(), Capacity: 4})
		ue, _ := r.addUE(t, "ue", geo.Static{P: geo.Point{X: 3}}, UEConfig{
			Apps: apps(std()), StartOffset: 7 * time.Second,
		})
		if err := r.sched.RunUntil(std().Period * 6); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
		return ue.Stats(), relay.Stats(), r.bs.TotalL3Messages()
	}
	u1, r1, l1 := run()
	u2, r2, l2 := run()
	if u1 != u2 || r1 != r2 || l1 != l2 {
		t.Fatalf("runs diverged:\n%+v vs %+v\n%+v vs %+v\nL3 %d vs %d", u1, u2, r1, r2, l1, l2)
	}
}

func TestSignalingSavingVsOriginal(t *testing.T) {
	// Fig. 15 / headline claim: with one UE connected to the relay, the
	// pair generates > 50 % less signaling than the original system where
	// relay and UE each transmit every heartbeat themselves.
	period := std().Period
	horizon := period * 10

	runScheme := func() int {
		r := newRig(t, 21)
		r.addRelay(t, "relay", geo.Static{}, RelayConfig{Profile: std(), Capacity: 8})
		r.addUE(t, "ue", geo.Static{P: geo.Point{X: 1}}, UEConfig{Apps: apps(std()), StartOffset: 10 * time.Second})
		if err := r.sched.RunUntil(horizon); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
		return r.bs.TotalL3Messages()
	}
	runOriginal := func() int {
		r := newRig(t, 21)
		// In the original system the "relay" is just another UE sending
		// its own heartbeats directly.
		r.addUE(t, "relay", geo.Static{}, UEConfig{Apps: apps(std()), Rules: &UERules{DisableD2D: true}})
		r.addUE(t, "ue", geo.Static{P: geo.Point{X: 1}}, UEConfig{Apps: apps(std()), StartOffset: 10 * time.Second, Rules: &UERules{DisableD2D: true}})
		if err := r.sched.RunUntil(horizon); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
		return r.bs.TotalL3Messages()
	}
	scheme, original := runScheme(), runOriginal()
	if scheme == 0 || original == 0 {
		t.Fatalf("no signaling recorded: scheme=%d original=%d", scheme, original)
	}
	saving := 1 - float64(scheme)/float64(original)
	if saving < 0.45 {
		t.Fatalf("signaling saving = %.1f%% (scheme %d vs original %d), want >= 45%%",
			saving*100, scheme, original)
	}
}

func TestCustomFeedbackTimeoutFiresEarly(t *testing.T) {
	// A short explicit feedback timeout triggers the fallback even though
	// the relay would have delivered at the period end.
	r := newRig(t, 17)
	r.addRelay(t, "relay", geo.Static{}, RelayConfig{Profile: std(), Capacity: 8})
	ue, _ := r.addUE(t, "ue", geo.Static{P: geo.Point{X: 1}}, UEConfig{
		Apps:        apps(std()),
		StartOffset: 10 * time.Second,
		Rules:       &UERules{FeedbackTimeout: 30 * time.Second}, // relay flushes at 270 s
	})
	if err := r.sched.RunUntil(100 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	us := ue.Stats()
	if us.FallbackResends != 1 {
		t.Fatalf("fallbacks = %d, want 1 (timeout before flush)", us.FallbackResends)
	}
	// The fallback delivery is on time (sent at 40 s, deadline 280 s).
	total, late := r.bs.Deliveries()
	if total != 1 || late != 0 {
		t.Fatalf("deliveries = %d (%d late), want 1 on-time fallback", total, late)
	}
}

func TestScanBackoffReducesDiscoveryEnergy(t *testing.T) {
	// A UE with no relay in range scans with exponential backoff instead
	// of burning discovery energy every heartbeat.
	r := newRig(t, 19)
	ue, led := r.addUE(t, "ue", geo.Static{P: geo.Point{X: 500}}, UEConfig{
		Apps: apps(std()), StartOffset: 5 * time.Second,
	})
	if err := r.sched.RunUntil(16 * std().Period); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	us := ue.Stats()
	if us.Generated < 15 {
		t.Fatalf("generated = %d, want >= 15", us.Generated)
	}
	// Backoff 1,2,4,8,8...: scans ≪ heartbeats.
	if us.Scans >= us.Generated/2 {
		t.Fatalf("scans = %d of %d heartbeats, backoff not engaging", us.Scans, us.Generated)
	}
	if us.Scans+us.ScansSkipped != us.Generated {
		t.Fatalf("scans %d + skipped %d != generated %d", us.Scans, us.ScansSkipped, us.Generated)
	}
	wantDiscovery := energy.MicroAmpHours(float64(us.Scans)) * energy.DefaultModel().UEDiscovery
	if got := led.Phase(energy.PhaseDiscovery); got != wantDiscovery {
		t.Fatalf("discovery energy = %v, want %v", got, wantDiscovery)
	}
}

func TestBusyRelayHandover(t *testing.T) {
	// With two capacity-1 relays in range, a UE whose relay just closed
	// its window hands over to the other instead of burning a cellular
	// connection.
	r := newRig(t, 21)
	relayA, _ := r.addRelay(t, "relay-a", geo.Static{}, RelayConfig{Profile: std(), Capacity: 1})
	relayB, _ := r.addRelay(t, "relay-b", geo.Static{P: geo.Point{X: 3}}, RelayConfig{Profile: std(), Capacity: 1})
	fast := std()
	fast.Period = 100 * time.Second
	ue, _ := r.addUE(t, "ue", geo.Static{P: geo.Point{X: 1}}, UEConfig{
		Apps: apps(fast), StartOffset: 5 * time.Second,
	})
	if err := r.sched.RunUntil(260 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	us := ue.Stats()
	// hb1 → relay-a (capacity flush, window closed); hb2 at 105 s hands
	// over to relay-b; hb3 at 205 s finds both closed and goes direct.
	if us.SentViaD2D != 2 {
		t.Fatalf("sent via D2D = %d, want 2 (handover)", us.SentViaD2D)
	}
	if us.Matches != 2 {
		t.Fatalf("matches = %d, want 2", us.Matches)
	}
	if us.DirectCellular != 1 {
		t.Fatalf("direct = %d, want 1", us.DirectCellular)
	}
	if relayA.Stats().Collected != 1 || relayB.Stats().Collected != 1 {
		t.Fatalf("collections = %d/%d, want 1/1",
			relayA.Stats().Collected, relayB.Stats().Collected)
	}
	// Feedback still reached the UE for both forwards.
	if us.AcksReceived != 2 {
		t.Fatalf("acks = %d, want 2", us.AcksReceived)
	}
	if us.FallbackResends != 0 {
		t.Fatalf("fallbacks = %d, want 0", us.FallbackResends)
	}
}

func TestProactiveReleaseBeyondPrejudgmentDistance(t *testing.T) {
	// The UE walks out to 20 m (inside radio range, beyond the 15 m
	// prejudgment bound): the link is released proactively and heartbeats
	// go direct, with no lossy-zone send attempts.
	r := newRig(t, 23)
	r.addRelay(t, "relay", geo.Static{}, RelayConfig{Profile: std(), Capacity: 8})
	led := energy.NewLedger()
	mob := geo.Line{From: geo.Point{X: 1}, To: geo.Point{X: 20}, Speed: 0.2, Start: 30 * time.Second}
	node, err := r.medium.Join("ue", d2d.RoleUE, mob, led)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	modem, err := r.bs.Attach("ue", r.model, rrc.DefaultConfig(), led)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	ue, err := NewUE(r.sched, node, modem, UEConfig{
		ID: "ue", Apps: apps(std()), Rules: defaultRules(), StartOffset: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewUE: %v", err)
	}
	if err := ue.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Walk reaches 20 m at t = 30 + 19/0.2 = 125 s; heartbeats at 10, 280,
	// 550, ... — from the second heartbeat on the UE is beyond 15 m.
	if err := r.sched.RunUntil(6 * std().Period); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	us := ue.Stats()
	if us.SentViaD2D != 1 {
		t.Fatalf("sent via D2D = %d, want 1 (only the first)", us.SentViaD2D)
	}
	if us.D2DSendFailures != 0 {
		t.Fatalf("lossy-zone send failures = %d, want 0 (proactive release)", us.D2DSendFailures)
	}
	if us.DirectCellular == 0 {
		t.Fatal("no direct sends after release")
	}
	if ue.Connected() {
		t.Fatal("link still open beyond prejudgment distance")
	}
}

func TestLossyLinkFailuresFallBackCleanly(t *testing.T) {
	// At 30 m the Wi-Fi Direct link drops ~15 % of transfers. A failed
	// D2D send must cancel its feedback timer (no ghost fallback) and go
	// out directly instead — conservation holds throughout.
	r := newRig(t, 29)
	r.addRelay(t, "relay", geo.Static{}, RelayConfig{Profile: std(), Capacity: 64})
	fast := std()
	fast.Period = 30 * time.Second
	match := matching.DefaultConfig()
	match.MaxDistance = 40 // loss zone allowed for this test
	ue, _ := r.addUE(t, "ue", geo.Static{P: geo.Point{X: 30}}, UEConfig{
		Apps: apps(fast), StartOffset: 5 * time.Second, Rules: &UERules{Match: match},
	})
	if err := r.sched.RunUntil(40 * fast.Period); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	us := ue.Stats()
	if got := ue.ID(); got != "ue" {
		t.Fatalf("ID = %q", got)
	}
	if us.D2DSendFailures == 0 {
		t.Fatalf("no transfer losses at 30 m: %+v", us)
	}
	// Every heartbeat left the device exactly once.
	if us.Generated != us.SentViaD2D+us.DirectCellular {
		t.Fatalf("conservation broken: %+v", us)
	}
	// Failed sends must not leave armed feedback timers: the only
	// fallbacks allowed are for successfully forwarded heartbeats whose
	// feedback got lost on the lossy link.
	if us.FallbackResends > us.SentViaD2D {
		t.Fatalf("more fallbacks (%d) than forwards (%d)", us.FallbackResends, us.SentViaD2D)
	}
}

// ---------------------------------------------------------------------------
// The state machines against a fake substrate. Everything above drives them
// through the live medium; these cases script the substrate's answers
// heartbeat by heartbeat, so each decision is pinned on its own.

// fakeSub is a scripted Radio, Uplink and RelayRadio on a real scheduler
// clock.
type fakeSub struct {
	relays map[hbmsg.DeviceID]*fakeLink // every relay in the world
	offer  []hbmsg.DeviceID             // the ones discovery finds right now
	scans  int
	direct [][]hbmsg.Heartbeat // cellular batches, in send order
	acks   []d2d.AckRef        // relay side: feedback sent
}

func (f *fakeSub) Scan() []d2d.PeerInfo {
	f.scans++
	var out []d2d.PeerInfo
	for i, id := range f.offer {
		out = append(out, d2d.PeerInfo{ID: id, EstDistance: float64(i + 1),
			Intent: d2d.MaxGroupOwnerIntent, FreeCapacity: f.relays[id].free})
	}
	return out
}

func (f *fakeSub) Connect(peer hbmsg.DeviceID) (Link, error) {
	l := f.relays[peer]
	l.open = true
	return l, nil
}

func (f *fakeSub) Send(hbs []hbmsg.Heartbeat, _ energy.Phase) error {
	f.direct = append(f.direct, append([]hbmsg.Heartbeat(nil), hbs...))
	return nil
}

func (f *fakeSub) Advertise(int, int) {}
func (f *fakeSub) Shutdown()          {}
func (f *fakeSub) Ack(_ ReturnPath, ref d2d.AckRef) error {
	f.acks = append(f.acks, ref)
	return nil
}

// fakeLink is the UE's link to one fake relay; the same value is returned
// for every connection to that relay.
type fakeLink struct {
	id     hbmsg.DeviceID
	open   bool
	free   int
	fail   string // next Send: "loss" fails it, "range" fails it and breaks the link
	onSend func(hbmsg.Heartbeat)
	sent   int
	closes int
}

func (l *fakeLink) Open() bool             { return l.open }
func (l *fakeLink) Distance() float64      { return 1 }
func (l *fakeLink) PeerFree() int          { return l.free }
func (l *fakeLink) PeerID() hbmsg.DeviceID { return l.id }
func (l *fakeLink) Close()                 { l.open = false; l.closes++ }
func (l *fakeLink) Send(hb hbmsg.Heartbeat) error {
	switch fail := l.fail; fail {
	case "range":
		l.open = false
		fallthrough
	case "loss":
		l.fail = ""
		return errors.New(fail)
	}
	l.sent++
	if l.onSend != nil {
		l.onSend(hb)
	}
	return nil
}

// beat scripts one heartbeat: what the substrate answers and what the UE
// must do with it.
type beat struct {
	offer []hbmsg.DeviceID       // relays discovery finds from this heartbeat on (nil = unchanged)
	free  map[hbmsg.DeviceID]int // advertised capacities changed before this heartbeat
	fail  string                 // outcome of this heartbeat's D2D send, see fakeLink.fail
	scan  bool                   // want: exactly one discovery
	via   hbmsg.DeviceID         // want: forwarded to this relay; "" = sent over cellular
}

func beats(parts ...[]beat) []beat { return slices.Concat(parts...) }

// skip is n heartbeats of suppressed discovery, sent directly.
func skip(n int) []beat { return make([]beat, n) }

func TestUEStateMachineOnFakeSubstrate(t *testing.T) {
	none := []hbmsg.DeviceID{}
	scanFail := []beat{{scan: true}}
	cases := []struct {
		name  string
		beats []beat
		// wantOpen lists relays whose link must never have been closed.
		wantOpen []hbmsg.DeviceID
	}{
		{
			name: "scan backoff doubles 1-2-4-8, caps, and resets on match",
			beats: beats(
				scanFail, skip(1), scanFail, skip(2), scanFail, skip(4), scanFail, skip(8),
				scanFail, skip(8), // capped
				[]beat{{offer: []hbmsg.DeviceID{"a"}, scan: true, via: "a"}},
				[]beat{{offer: none, fail: "range"}}, // link breaks: rematch from scratch
				scanFail, skip(1), scanFail,
			),
		},
		{
			name: "busy relay hands over when the scan budget allows, old link left open",
			beats: []beat{
				{offer: []hbmsg.DeviceID{"a", "b"}, scan: true, via: "a"},
				{free: map[hbmsg.DeviceID]int{"a": 0}, scan: true, via: "b"},
				{via: "b"},
			},
			wantOpen: []hbmsg.DeviceID{"a", "b"},
		},
		{
			name: "busy relay without scan budget goes direct and keeps the link",
			beats: []beat{
				{offer: []hbmsg.DeviceID{"a"}, scan: true, via: "a"},
				{free: map[hbmsg.DeviceID]int{"a": 0}, scan: true}, // hand-over scan finds nobody
				{offer: []hbmsg.DeviceID{"a", "b"}},                // b is there, but the budget is spent
				{free: map[hbmsg.DeviceID]int{"a": 4}, via: "a"},   // a frees up: same link, no scan
			},
			wantOpen: []hbmsg.DeviceID{"a"},
		},
		{
			name: "lost transfer keeps the link, out-of-range send drops it",
			beats: []beat{
				{offer: []hbmsg.DeviceID{"a"}, scan: true, via: "a"},
				{fail: "loss"},
				{via: "a"},
				{fail: "range"},
				{scan: true, via: "a"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := simtime.NewScheduler(1)
			sub := &fakeSub{relays: map[hbmsg.DeviceID]*fakeLink{}}
			ue, err := NewUEOn(simtime.SchedulerClock{S: s}, sub, sub, UEConfig{
				ID: "ue", Apps: apps(std()), Rules: defaultRules(), StartOffset: time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []hbmsg.DeviceID{"a", "b"} {
				// Every relay acknowledges inside Send, as a relay whose batch
				// this heartbeat fills does: the ack must find the feedback
				// timer already armed, and any fallback below is then a ghost
				// timer left by a failed send.
				sub.relays[id] = &fakeLink{id: id, free: 4, onSend: func(hb hbmsg.Heartbeat) {
					ue.OnAck(d2d.AckRef{Src: hb.Src, Seq: hb.Seq})
				}}
			}
			if err := ue.Start(); err != nil {
				t.Fatal(err)
			}
			var link *fakeLink // where the UE last forwarded
			forwarded := 0
			for i, b := range tc.beats {
				if b.offer != nil {
					sub.offer = b.offer
				}
				for id, free := range b.free {
					sub.relays[id].free = free
				}
				if b.fail != "" {
					link.fail = b.fail
				}
				scans, direct := sub.scans, len(sub.direct)
				sent := map[hbmsg.DeviceID]int{"a": sub.relays["a"].sent, "b": sub.relays["b"].sent}
				if err := s.RunUntil(time.Duration(i)*std().Period + 2*time.Second); err != nil {
					t.Fatal(err)
				}
				wantScans := 0
				if b.scan {
					wantScans = 1
				}
				if got := sub.scans - scans; got != wantScans {
					t.Fatalf("heartbeat %d: %d scans, want %d", i+1, got, wantScans)
				}
				wantDirect := 1
				if b.via != "" {
					wantDirect = 0
					link = sub.relays[b.via]
					forwarded++
					if link.sent-sent[b.via] != 1 {
						t.Fatalf("heartbeat %d: not forwarded to %s (stats %+v)", i+1, b.via, ue.Stats())
					}
				}
				if got := len(sub.direct) - direct; got != wantDirect {
					t.Fatalf("heartbeat %d: %d cellular sends, want %d (stats %+v)", i+1, got, wantDirect, ue.Stats())
				}
			}
			// Run past every feedback timeout.
			if err := s.RunUntil(s.Now() + std().Period - 3*time.Second); err != nil {
				t.Fatal(err)
			}
			us := ue.Stats()
			if us.AcksReceived != forwarded || us.FallbackResends != 0 {
				t.Fatalf("acks %d of %d forwards, %d fallbacks: feedback not armed before the send, or a failed send left its timer",
					us.AcksReceived, forwarded, us.FallbackResends)
			}
			for _, id := range tc.wantOpen {
				if l := sub.relays[id]; !l.open || l.closes != 0 {
					t.Fatalf("link to %s closed (open=%v, closes=%d)", id, l.open, l.closes)
				}
			}
		})
	}
}

func TestRelayPeriodAndFlushTimerOnSameInstant(t *testing.T) {
	// With nothing due earlier, the flush deadline is the period end — the
	// very instant the period timer, armed first, fires. The new period must
	// drain the old window (batch, own heartbeat, feedback) before it resets
	// the policy, and the superseded flush timer must not fire after it.
	s := simtime.NewScheduler(1)
	sub := &fakeSub{}
	relay, err := NewRelayOn(simtime.SchedulerClock{S: s}, sub, Cellular{sub}, RelayConfig{
		ID: "relay", Profile: std(), Capacity: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := relay.Start(); err != nil {
		t.Fatal(err)
	}
	period := std().Period
	if _, err := s.At(10*time.Second, func() {
		relay.Receive(std().Heartbeat("ue", 1, s.Now()), "path")
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(period - time.Second); err != nil {
		t.Fatal(err)
	}
	if len(sub.direct) != 0 {
		t.Fatalf("flushed before the period end: %v", sub.direct)
	}
	if err := s.RunUntil(period + time.Second); err != nil {
		t.Fatal(err)
	}
	if len(sub.direct) != 1 || len(sub.direct[0]) != 2 {
		t.Fatalf("cellular batches at the period boundary = %v, want one of [forwarded, own]", sub.direct)
	}
	if got := sub.direct[0]; got[0].Src != "ue" || got[1].Src != "relay" || got[1].Seq != 1 {
		t.Fatalf("batch = %v, want the forwarded heartbeat then the old period's own", got)
	}
	if len(sub.acks) != 1 || sub.acks[0] != (d2d.AckRef{Src: "ue", Seq: 1}) {
		t.Fatalf("acks = %v, want one for ue/1", sub.acks)
	}
	rs := relay.Stats()
	if rs.Flushes != 1 || rs.FlushesByPeriodEnd != 1 || rs.OwnHeartbeats != 2 || rs.Credits != 1 {
		t.Fatalf("stats = %+v, want one period-end flush, two own heartbeats, one credit", rs)
	}
	if free, _ := relay.Advertised(); free != 8 {
		t.Fatalf("advertised free = %d after the new period opened, want 8", free)
	}
}

func TestRelayFlushReasonEveryKind(t *testing.T) {
	// One heartbeat at 10 s into each kind's window: every kind's one flush
	// carries its reason on the trace event, and only Algorithm 1's three
	// reasons land in the FlushesBy counters.
	period := std().Period
	for _, tc := range []struct {
		kind   sched.Kind
		at     time.Duration
		reason sched.FlushReason
		byCap  int
		byEnd  int
	}{
		{sched.KindNagle, 10 * time.Second, sched.ReasonCapacity, 1, 0},
		{sched.KindImmediate, 10 * time.Second, sched.ReasonPolicy, 0, 0},
		{sched.KindFixedDelay, 40 * time.Second, sched.ReasonPolicy, 0, 0},
		{sched.KindPeriodAligned, period, sched.ReasonPeriodEnd, 0, 1},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			s := simtime.NewScheduler(1)
			sub := &fakeSub{}
			w, err := sched.New(tc.kind, 1, period, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			rec := &trace.Recorder{}
			relay, err := NewRelayOn(simtime.SchedulerClock{S: s}, sub, Cellular{sub}, RelayConfig{
				ID: "relay", Profile: std(), Capacity: 1, Policy: w, Tracer: rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := relay.Start(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.At(10*time.Second, func() {
				relay.Receive(std().Heartbeat("ue", 1, s.Now()), "path")
			}); err != nil {
				t.Fatal(err)
			}
			if err := s.RunUntil(period + time.Second); err != nil {
				t.Fatal(err)
			}
			flushes := rec.ByKind(trace.KindFlush)
			if len(flushes) != 1 || flushes[0].At != tc.at || flushes[0].Reason != tc.reason.String() || flushes[0].N != 2 {
				t.Fatalf("flush events = %+v, want one of 2 heartbeats at %v for %q", flushes, tc.at, tc.reason)
			}
			rs := relay.Stats()
			if rs.Flushes != 1 || rs.FlushesByCapacity != tc.byCap || rs.FlushesByDeadline != 0 || rs.FlushesByPeriodEnd != tc.byEnd {
				t.Fatalf("stats = %+v, want one flush counted %d by capacity, %d by period end", rs, tc.byCap, tc.byEnd)
			}
		})
	}
}

// lossyForwarder is a Forwarder whose every flush has the scripted outcome.
type lossyForwarder struct {
	lost  []int
	acked bool
	err   error
}

func (u lossyForwarder) Forward([]hbmsg.Heartbeat) ([]int, bool, error) {
	return u.lost, u.acked, u.err
}

// TestRelayForgetsRoutesOfLostHeartbeats fills a relay's window with two
// forwarded heartbeats, so the second triggers a capacity flush of
// [ue-a, ue-b, own], and scripts what became of it. A heartbeat that did
// not leave is neither forwarded nor credited, and its feedback route is
// dropped with the flush; one that left keeps its route until it is
// confirmed, at flush or later, or until the first period boundary past
// its UE's ack window, after which no acknowledgement can reach the UE in
// time.
func TestRelayForgetsRoutesOfLostHeartbeats(t *testing.T) {
	cases := []struct {
		name          string
		up            lossyForwarder
		wantForwarded int
		wantAwaiting  int  // routes left after the flush
		lapse         bool // run past ue-b's ack window before confirming
		wantAcks      []d2d.AckRef
	}{
		{name: "modem send fails", up: lossyForwarder{acked: true, err: errors.New("no network")}},
		{name: "ue-a's shard unreachable", up: lossyForwarder{lost: []int{0}},
			wantForwarded: 1, wantAwaiting: 1, wantAcks: []d2d.AckRef{{Src: "ue-b", Seq: 1}}},
		{name: "own heartbeat lost, rest acknowledged", up: lossyForwarder{lost: []int{2}, acked: true},
			wantForwarded: 2, wantAcks: []d2d.AckRef{{Src: "ue-a", Seq: 1}, {Src: "ue-b", Seq: 1}}},
		{name: "ue-b forwarded, never acknowledged", up: lossyForwarder{lost: []int{0}},
			wantForwarded: 1, wantAwaiting: 1, lapse: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := simtime.NewScheduler(1)
			sub := &fakeSub{}
			relay, err := NewRelayOn(simtime.SchedulerClock{S: s}, sub, tc.up, RelayConfig{
				ID: "relay", Profile: std(), Capacity: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := relay.Start(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.At(10*time.Second, func() {
				relay.Receive(std().Heartbeat("ue-a", 1, s.Now()), "a")
				relay.Receive(std().Heartbeat("ue-b", 1, s.Now()), "b")
			}); err != nil {
				t.Fatal(err)
			}
			if err := s.RunUntil(20 * time.Second); err != nil {
				t.Fatal(err)
			}
			if got := relay.Awaiting(); got != tc.wantAwaiting {
				t.Fatalf("%d feedback routes left after the flush, want %d", got, tc.wantAwaiting)
			}
			rs := relay.Stats()
			if rs.ForwardedSent != tc.wantForwarded || rs.Credits != tc.wantForwarded {
				t.Fatalf("forwarded %d, credits %d, want %d", rs.ForwardedSent, rs.Credits, tc.wantForwarded)
			}
			if sent := tc.up.err == nil; sent != (rs.Flushes == 1) || sent == (rs.SendErrors == 1) {
				t.Fatalf("flushes %d, send errors %d for a flush that left: %v", rs.Flushes, rs.SendErrors, sent)
			}
			if tc.lapse {
				// ue-b's window (expiry + grace from its 10 s origin) ends
				// at 285 s; the boundary at 270 s keeps its route, the one
				// at 540 s drops it.
				lapse := 10*time.Second + FeedbackWindow(0, std().Expiry())
				if err := s.RunUntil(lapse); err != nil {
					t.Fatal(err)
				}
				if got := relay.Awaiting(); got != 1 {
					t.Fatalf("%d feedback routes inside the window, want 1", got)
				}
				if err := s.RunUntil(2 * std().Period); err != nil {
					t.Fatal(err)
				}
				if got, exp := relay.Awaiting(), relay.RoutesExpired(); got != 0 || exp != 1 {
					t.Fatalf("%d feedback routes and %d expired at the first boundary past the window, want 0 and 1", got, exp)
				}
			}
			// The substrate confirms everything the server might have
			// acknowledged: only what left has a route to feed back on.
			relay.Confirm("ue-a", 1)
			relay.Confirm("ue-b", 1)
			relay.Confirm("relay", 1)
			if !slices.Equal(sub.acks, tc.wantAcks) || relay.Awaiting() != 0 {
				t.Fatalf("acks = %v with %d routes left, want %v and none", sub.acks, relay.Awaiting(), tc.wantAcks)
			}
			if rs := relay.Stats(); rs.AcksSent != len(tc.wantAcks) {
				t.Fatalf("acks sent = %d, want %d", rs.AcksSent, len(tc.wantAcks))
			}
		})
	}
}

// clocks are the two clocks a UE runs on: the sequential kernel's
// scheduler and the tile kernel's per-device agenda.
var clocks = map[string]func(*simtime.Scheduler) simtime.Clock{
	"scheduler": func(s *simtime.Scheduler) simtime.Clock { return simtime.SchedulerClock{S: s} },
	"agenda":    func(s *simtime.Scheduler) simtime.Clock { return simtime.AgendaClock{A: simtime.NewAgenda(s)} },
}

// TestUEPendingEntriesAreRecycled drives one UE through an acknowledged
// forward, an unacknowledged one and another acknowledged one, on both
// clocks. The UE tracks all three in one table under one lapse timer, so
// the lapse that fires for the second must resend the second — not what
// the table or the timer held before it — and a direct send's scratch
// batch must carry exactly that heartbeat.
func TestUEPendingEntriesAreRecycled(t *testing.T) {
	for name, mk := range clocks {
		t.Run(name, func(t *testing.T) {
			s := simtime.NewScheduler(1)
			sub := &fakeSub{relays: map[hbmsg.DeviceID]*fakeLink{}, offer: []hbmsg.DeviceID{"a"}}
			ue, err := NewUEOn(mk(s), sub, sub, UEConfig{
				ID: "ue", Apps: apps(std()), StartOffset: time.Second,
				Rules: &UERules{Match: matching.DefaultConfig(), FeedbackTimeout: 30 * time.Second},
			})
			if err != nil {
				t.Fatal(err)
			}
			acking := true
			sub.relays["a"] = &fakeLink{id: "a", free: 4, onSend: func(hb hbmsg.Heartbeat) {
				if acking {
					ue.OnAck(d2d.AckRef{Src: hb.Src, Seq: hb.Seq})
				}
			}}
			if err := ue.Start(); err != nil {
				t.Fatal(err)
			}
			period := std().Period
			run := func(until time.Duration) {
				t.Helper()
				if err := s.RunUntil(until); err != nil {
					t.Fatal(err)
				}
			}
			run(2 * time.Second) // heartbeat 1: forwarded and acknowledged inside Send
			acking = false
			run(period + 2*time.Second) // heartbeat 2: forwarded, never acknowledged
			acking = true
			// Heartbeat 2 times out before heartbeat 3 is due: the fallback
			// resend is the first cellular batch, and heartbeat 3 finds the
			// table empty again.
			run(2*period + 2*time.Second)
			if len(sub.direct) != 1 || len(sub.direct[0]) != 1 || sub.direct[0][0].Seq != 2 {
				t.Fatalf("cellular batches = %v, want exactly the fallback resend of heartbeat 2", sub.direct)
			}
			us := ue.Stats()
			if us.FallbackResends != 1 || us.AcksReceived != 2 || us.SentViaD2D != 3 {
				t.Fatalf("stats = %+v, want 3 forwards, 2 acks, 1 fallback", us)
			}
		})
	}
}

// quietSub is a Radio and Uplink that allocate nothing: discovery always
// finds the one relay behind link, and cellular sends are only counted.
type quietSub struct {
	peers  []d2d.PeerInfo
	link   *fakeLink
	direct int
}

func (q *quietSub) Scan() []d2d.PeerInfo { return q.peers }

func (q *quietSub) Connect(hbmsg.DeviceID) (Link, error) {
	q.link.open = true
	return q.link, nil
}

func (q *quietSub) Send([]hbmsg.Heartbeat, energy.Phase) error {
	q.direct++
	return nil
}

// TestUEForwardAckZeroAllocs pins what a heartbeat costs a warm UE on
// either clock: a forward its relay acknowledges, and a forward whose
// window lapses into a fallback resend (and the rematch after it), each
// allocate nothing — the in-flight table reuses its slots and the lapse
// timer its callback. The lapse timer fires only for a window no ack
// closed: one kernel event per acknowledged heartbeat, two per lapsed one.
func TestUEForwardAckZeroAllocs(t *testing.T) {
	for name, mk := range clocks {
		t.Run(name, func(t *testing.T) {
			s := simtime.NewScheduler(1)
			link := &fakeLink{id: "a", free: 4}
			sub := &quietSub{link: link, peers: []d2d.PeerInfo{{ID: "a", EstDistance: 1,
				Intent: d2d.MaxGroupOwnerIntent, FreeCapacity: 4}}}
			ue, err := NewUEOn(mk(s), sub, sub, UEConfig{
				ID: "ue", Apps: apps(std()), StartOffset: time.Second,
				Rules: &UERules{Match: matching.DefaultConfig(), FeedbackTimeout: 30 * time.Second},
			})
			if err != nil {
				t.Fatal(err)
			}
			acking := true
			link.onSend = func(hb hbmsg.Heartbeat) {
				if acking {
					ue.OnAck(d2d.AckRef{Src: hb.Src, Seq: hb.Seq})
				}
			}
			if err := ue.Start(); err != nil {
				t.Fatal(err)
			}
			// One period: a heartbeat, and its window's lapse when no ack
			// closed it first.
			period := func() {
				if err := s.RunUntil(s.Now() + std().Period); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.RunUntil(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				name string
				ack  bool
			}{{"forward, ack", true}, {"forward, lapse, fallback", false}} {
				acking = tc.ack
				period() // the first lapse warms the fallback path
				before, direct, fired := ue.Stats(), sub.direct, s.Fired()
				allocs := testing.AllocsPerRun(20, period)
				us, events := ue.Stats(), int(s.Fired()-fired)
				forwards, acks := us.SentViaD2D-before.SentViaD2D, us.AcksReceived-before.AcksReceived
				fallbacks := us.FallbackResends - before.FallbackResends
				if forwards != 21 || sub.direct-direct != fallbacks || tc.ack != (acks == forwards) || tc.ack == (fallbacks == forwards) {
					t.Fatalf("%s: %d forwards, %d acks, %d fallbacks, %d cellular sends over 21 periods",
						tc.name, forwards, acks, fallbacks, sub.direct-direct)
				}
				if want := forwards + fallbacks; events != want {
					t.Errorf("%s: %d kernel events over 21 periods, want %d", tc.name, events, want)
				}
				if allocs != 0 {
					t.Errorf("%s: %.1f allocs per heartbeat, want 0", tc.name, allocs)
				}
			}
		})
	}
}
