package core

import (
	"testing"
	"time"

	"d2dhb/internal/d2d"
	"d2dhb/internal/energy"
	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/sched"
)

func std() hbmsg.AppProfile { return hbmsg.StandardHeartbeat() }

// stdApps is a UE running the standard heartbeat app alone.
func stdApps() []hbmsg.AppProfile { return []hbmsg.AppProfile{std()} }

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := New(Options{Duration: time.Hour, Technique: 99}); err == nil {
		t.Fatal("unknown technique accepted")
	}
}

func TestRunRequiresDevices(t *testing.T) {
	sim, err := New(Options{Duration: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("empty simulation ran")
	}
}

func TestRunOnlyOnce(t *testing.T) {
	sim, err := New(Options{Duration: time.Hour, Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := sim.AddUE(UESpec{ID: "u", Apps: stdApps()}); err != nil {
		t.Fatalf("AddUE: %v", err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
	if _, err := sim.AddUE(UESpec{ID: "u2", Apps: stdApps()}); err == nil {
		t.Fatal("AddUE after Run accepted")
	}
	if _, err := sim.AddRelay(RelaySpec{ID: "r", Profile: std()}); err == nil {
		t.Fatal("AddRelay after Run accepted")
	}
}

func TestPairScenarioEndToEnd(t *testing.T) {
	sim, err := PairScenario(Options{Seed: 1, Duration: 5 * std().Period}, std(), 1, 1, 8)
	if err != nil {
		t.Fatalf("PairScenario: %v", err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Devices) != 2 {
		t.Fatalf("devices = %d, want 2", len(rep.Devices))
	}
	relay, ok := rep.Device("relay")
	if !ok || relay.Role != d2d.RoleRelay || relay.Relay == nil {
		t.Fatalf("relay report wrong: %+v", relay)
	}
	ue, ok := rep.Device("ue-01")
	if !ok || ue.Role != d2d.RoleUE || ue.UE == nil {
		t.Fatalf("ue report wrong: %+v", ue)
	}
	if ue.UE.SentViaD2D == 0 {
		t.Fatal("no D2D forwarding happened")
	}
	if ue.RRC.Transmissions != 0 {
		t.Fatalf("UE transmitted %d times over cellular, want 0", ue.RRC.Transmissions)
	}
	if rep.TotalL3Messages == 0 || rep.Deliveries == 0 {
		t.Fatalf("empty aggregates: %+v", rep)
	}
	if rep.LateDeliveries != 0 {
		t.Fatalf("late deliveries = %d, want 0", rep.LateDeliveries)
	}
	if got := rep.OnTimeRate(); got != 1 {
		t.Fatalf("on-time rate = %v, want 1", got)
	}
	if rep.TotalEnergy() != relay.Total+ue.Total {
		t.Fatal("TotalEnergy mismatch")
	}
	if rep.EnergyByRole(d2d.RoleUE) != ue.Total {
		t.Fatal("EnergyByRole mismatch")
	}
}

func TestOriginalScenarioNoD2D(t *testing.T) {
	sim, err := OriginalScenario(Options{Seed: 1, Duration: 3 * std().Period}, std(), 2, 1)
	if err != nil {
		t.Fatalf("OriginalScenario: %v", err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range rep.Devices {
		if d.Energy[energy.PhaseD2DSend] != 0 || d.Energy[energy.PhaseDiscovery] != 0 {
			t.Fatalf("device %s has D2D energy in original system", d.ID)
		}
		if d.RRC.Transmissions == 0 {
			t.Fatalf("device %s never transmitted", d.ID)
		}
	}
}

func TestSchemeBeatsOriginalOnSignaling(t *testing.T) {
	// Headline: > 50 % signaling saving for the relay + 1 UE pair over 10
	// periods.
	horizon := 10 * std().Period
	scheme, err := PairScenario(Options{Seed: 5, Duration: horizon}, std(), 1, 1, 8)
	if err != nil {
		t.Fatalf("PairScenario: %v", err)
	}
	schemeRep, err := scheme.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	orig, err := OriginalScenario(Options{Seed: 5, Duration: horizon}, std(), 1, 1)
	if err != nil {
		t.Fatalf("OriginalScenario: %v", err)
	}
	origRep, err := orig.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	saving := 1 - float64(schemeRep.TotalL3Messages)/float64(origRep.TotalL3Messages)
	if saving < 0.45 {
		t.Fatalf("signaling saving = %.1f%% (%d vs %d), want >= 45%%",
			saving*100, schemeRep.TotalL3Messages, origRep.TotalL3Messages)
	}
}

func TestPolicyOptionImmediateIncreasesSignaling(t *testing.T) {
	// UEs spread across the period (unsynchronized apps): with the
	// immediate policy each forward opens its own RRC connection, while
	// Algorithm 1 batches everything into one.
	horizon := 6 * std().Period
	run := func(kind sched.Kind) int {
		sim, err := New(Options{Seed: 3, Duration: horizon, Policy: kind})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := sim.AddRelay(RelaySpec{ID: "relay", Profile: std(), Capacity: 8}); err != nil {
			t.Fatalf("AddRelay: %v", err)
		}
		for i := 0; i < 3; i++ {
			if _, err := sim.AddUE(UESpec{
				ID:          hbmsg.DeviceID(rune('a' + i)),
				Apps:        stdApps(),
				Mobility:    geo.Static{P: geo.Point{X: 1, Y: float64(i)}},
				StartOffset: time.Duration(20+90*i) * time.Second,
			}); err != nil {
				t.Fatalf("AddUE: %v", err)
			}
		}
		rep, err := sim.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep.TotalL3Messages
	}
	nagle := run(sched.KindNagle)
	immediate := run(sched.KindImmediate)
	if immediate <= nagle {
		t.Fatalf("immediate policy L3 %d <= nagle %d, batching gained nothing", immediate, nagle)
	}
}

func TestCrowdScenario(t *testing.T) {
	sim, err := CrowdScenario(Options{Seed: 7, Duration: 2 * std().Period}, std(), 3, 12, 60, 8)
	if err != nil {
		t.Fatalf("CrowdScenario: %v", err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Devices) != 15 {
		t.Fatalf("devices = %d, want 15", len(rep.Devices))
	}
	forwarded := 0
	for _, d := range rep.Devices {
		if d.UE != nil {
			forwarded += d.UE.SentViaD2D
		}
	}
	if forwarded == 0 {
		t.Fatal("no UE forwarded in a 60 m crowd")
	}
}

func TestCrowdScenarioValidation(t *testing.T) {
	opts := Options{Seed: 1, Duration: time.Hour}
	if _, err := CrowdScenario(opts, std(), -1, 5, 50, 8); err == nil {
		t.Fatal("negative relays accepted")
	}
	if _, err := CrowdScenario(opts, std(), 1, 5, 0, 8); err == nil {
		t.Fatal("zero side accepted")
	}
	if _, err := PairScenario(opts, std(), -2, 1, 8); err == nil {
		t.Fatal("negative UEs accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, energy.MicroAmpHours) {
		sim, err := CrowdScenario(Options{Seed: 11, Duration: 2 * std().Period}, std(), 2, 8, 50, 8)
		if err != nil {
			t.Fatalf("CrowdScenario: %v", err)
		}
		rep, err := sim.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep.TotalL3Messages, rep.TotalEnergy()
	}
	l1, e1 := run()
	l2, e2 := run()
	if l1 != l2 || e1 != e2 {
		t.Fatalf("runs diverged: L3 %d vs %d, energy %v vs %v", l1, l2, e1, e2)
	}
}

func TestFailureInjectionViaScheduler(t *testing.T) {
	sim, err := New(Options{Seed: 1, Duration: 400 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	relay, err := sim.AddRelay(RelaySpec{ID: "relay", Profile: std(), Mobility: geo.Static{}, Capacity: 8})
	if err != nil {
		t.Fatalf("AddRelay: %v", err)
	}
	ue, err := sim.AddUE(UESpec{ID: "ue", Apps: stdApps(), Mobility: geo.Static{P: geo.Point{X: 1}}, StartOffset: 10 * time.Second})
	if err != nil {
		t.Fatalf("AddUE: %v", err)
	}
	if _, err := sim.Scheduler().At(30*time.Second, relay.Stop); err != nil {
		t.Fatalf("At: %v", err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := ue.Stats().FallbackResends; got < 1 {
		t.Fatalf("fallback resends = %d, want >= 1 after relay death", got)
	}
}
