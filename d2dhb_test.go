package d2dhb

import (
	"testing"
	"time"
)

func TestFacadeSimulation(t *testing.T) {
	profile := StandardHeartbeat()
	sim, err := PairScenario(Options{Seed: 1, Duration: 3 * profile.Period}, profile, 1, 1, 8)
	if err != nil {
		t.Fatalf("PairScenario: %v", err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TotalL3Messages == 0 || rep.Deliveries == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	ue, ok := rep.Device("ue-01")
	if !ok || ue.UE.SentViaD2D == 0 {
		t.Fatal("UE did not forward via D2D")
	}
}

func TestFacadeOriginalVsScheme(t *testing.T) {
	profile := StandardHeartbeat()
	horizon := 5 * profile.Period

	scheme, err := PairScenario(Options{Seed: 2, Duration: horizon}, profile, 1, 1, 8)
	if err != nil {
		t.Fatalf("PairScenario: %v", err)
	}
	schemeRep, err := scheme.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	orig, err := OriginalScenario(Options{Seed: 2, Duration: horizon}, profile, 1, 1)
	if err != nil {
		t.Fatalf("OriginalScenario: %v", err)
	}
	origRep, err := orig.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if schemeRep.TotalL3Messages >= origRep.TotalL3Messages {
		t.Fatalf("scheme L3 %d not below original %d",
			schemeRep.TotalL3Messages, origRep.TotalL3Messages)
	}
}

func TestFacadeProfiles(t *testing.T) {
	apps := Apps()
	if len(apps) != 4 {
		t.Fatalf("apps = %d, want 4", len(apps))
	}
	if WeChat().Period != 270*time.Second {
		t.Fatal("WeChat period wrong")
	}
	if err := DefaultEnergyModel().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
}

func TestFacadeRealStack(t *testing.T) {
	srv := NewServer()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Shutdown()

	relay, err := NewRelayAgent(RelayAgentConfig{
		ID: "r", App: "std", Period: 100 * time.Millisecond,
		Expiry: 200 * time.Millisecond, Pad: 54, Capacity: 4,
	})
	if err != nil {
		t.Fatalf("NewRelayAgent: %v", err)
	}
	if err := relay.Start("127.0.0.1:0", srv.Addr()); err != nil {
		t.Fatalf("relay: %v", err)
	}
	defer relay.Shutdown()

	ue, err := NewUEClient(UEClientConfig{
		ID:        "u",
		Apps:      []UEApp{{Name: "std", Period: 100 * time.Millisecond, Expiry: 200 * time.Millisecond, Pad: 54}},
		RelayAddr: relay.Addr(), ServerAddr: srv.Addr(),
	})
	if err != nil {
		t.Fatalf("NewUEClient: %v", err)
	}
	if err := ue.Start(); err != nil {
		t.Fatalf("ue: %v", err)
	}
	defer ue.Shutdown()

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Stats().HeartbeatsRelayed >= 1 && srv.Online("u", time.Now()) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("end-to-end relaying never completed: server %+v, ue %+v",
		srv.Stats(), ue.Stats())
}

func TestFacadeCrowdAndMobility(t *testing.T) {
	profile := StandardHeartbeat()
	sim, err := CrowdScenario(Options{Seed: 4, Duration: 2 * profile.Period},
		profile, 2, 10, 80, 8)
	if err != nil {
		t.Fatalf("CrowdScenario: %v", err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Devices) != 12 {
		t.Fatalf("devices = %d, want 12", len(rep.Devices))
	}

	// Geometry wrappers.
	area := SquareArea(50)
	walk, err := NewRandomWaypoint(area, Point{X: 25, Y: 25}, 0.5, 1.5, time.Second, 1)
	if err != nil {
		t.Fatalf("NewRandomWaypoint: %v", err)
	}
	if !area.Contains(walk.Pos(time.Minute)) {
		t.Fatal("walk escaped area")
	}
	var mob Mobility = Line{From: Point{}, To: Point{X: 10}, Speed: 1}
	if got := mob.Pos(5 * time.Second); got.X != 5 {
		t.Fatalf("line pos = %v", got)
	}
	mob = Orbit{Radius: 2}
	if got := mob.Pos(0); got.X != 2 {
		t.Fatalf("orbit pos = %v", got)
	}
	mob = Static{P: Point{X: 1}}
	if got := mob.Pos(time.Hour); got.X != 1 {
		t.Fatalf("static pos = %v", got)
	}
}

func TestFacadeConstants(t *testing.T) {
	if PolicyNagle == PolicyImmediate || WiFiDirect == Bluetooth || Bluetooth == LTEDirect {
		t.Fatal("facade constants collide")
	}
	if QQ().Size != 378 || WhatsApp().Size != 66 || Facebook().Size != 100 {
		t.Fatal("profile re-exports wrong")
	}
}
