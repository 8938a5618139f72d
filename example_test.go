package d2dhb_test

import (
	"fmt"

	"d2dhb"
)

// ExamplePairScenario runs the paper's canonical setup — one relay and one
// UE a meter apart — and reports what the framework saved.
func ExamplePairScenario() {
	profile := d2dhb.StandardHeartbeat()
	opts := d2dhb.Options{Seed: 1, Duration: 5 * profile.Period}

	scheme, err := d2dhb.PairScenario(opts, profile, 1, 1, 8)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	schemeRep, err := scheme.Run()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	original, err := d2dhb.OriginalScenario(opts, profile, 1, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	originalRep, err := original.Run()
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	ue, _ := schemeRep.Device("ue-01")
	fmt.Printf("forwarded over D2D: %d\n", ue.UE.SentViaD2D)
	fmt.Printf("UE cellular transmissions: %d\n", ue.RRC.Transmissions)
	fmt.Printf("signaling: %d vs %d layer-3 messages\n",
		schemeRep.TotalL3Messages, originalRep.TotalL3Messages)
	// Output:
	// forwarded over D2D: 5
	// UE cellular transmissions: 0
	// signaling: 37 vs 85 layer-3 messages
}

// ExampleNewSimulation builds a custom topology: a relay that dies mid-run
// and a UE that recovers through the feedback fallback.
func ExampleNewSimulation() {
	profile := d2dhb.StandardHeartbeat()
	sim, err := d2dhb.NewSimulation(d2dhb.Options{Seed: 2, Duration: 3 * profile.Period})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	relay, err := sim.AddRelay(d2dhb.RelaySpec{ID: "relay", Profile: profile, Capacity: 8})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ue, err := sim.AddUE(d2dhb.UESpec{
		ID: "ue", Apps: []d2dhb.AppProfile{profile},
		Mobility:    d2dhb.Static{P: d2dhb.Point{X: 1}},
		StartOffset: 20 * 1e9, // 20 s
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Kill the relay before its first flush.
	if _, err := sim.Scheduler().At(30*1e9, relay.Stop); err != nil {
		fmt.Println("error:", err)
		return
	}
	if _, err := sim.Run(); err != nil {
		fmt.Println("error:", err)
		return
	}
	st := ue.Stats()
	fmt.Printf("forwarded: %d, fallback resends: %d\n", st.SentViaD2D, st.FallbackResends)
	// Output:
	// forwarded: 1, fallback resends: 1
}

// ExampleAppProfile shows the measured IM app parameters the workloads use.
func ExampleAppProfile() {
	for _, p := range d2dhb.Apps() {
		fmt.Printf("%s: every %v, %d bytes\n", p.Name, p.Period, p.Size)
	}
	// Output:
	// WeChat: every 4m30s, 74 bytes
	// WhatsApp: every 4m0s, 66 bytes
	// QQ: every 5m0s, 378 bytes
	// Facebook: every 5m0s, 100 bytes
}
