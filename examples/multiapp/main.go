// Multiapp: phones run several IM apps at once (Table I), each with its
// own heartbeat period and expiry. One relay serves four multi-app UEs; the
// example shows per-app aggregation, the relay's incentive credits, and the
// daily battery arithmetic behind the paper's "6% of battery" motivation.
package main

import (
	"fmt"
	"os"
	"time"

	"d2dhb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "multiapp:", err)
		os.Exit(1)
	}
}

func run() error {
	const day = 24 * time.Hour
	opts := d2dhb.Options{Seed: 11, Duration: day}
	sim, err := d2dhb.NewSimulation(opts)
	if err != nil {
		return err
	}
	relay, err := sim.AddRelay(d2dhb.RelaySpec{
		ID: "relay", Profile: d2dhb.StandardHeartbeat(), Capacity: 16,
	})
	if err != nil {
		return err
	}
	// Four UEs, each running WeChat + WhatsApp + QQ: one list, shared.
	apps := []d2dhb.AppProfile{d2dhb.WeChat(), d2dhb.WhatsApp(), d2dhb.QQ()}
	for i := 0; i < 4; i++ {
		if _, err := sim.AddUE(d2dhb.UESpec{
			ID:          d2dhb.DeviceID(fmt.Sprintf("ue-%d", i+1)),
			Apps:        apps,
			Mobility:    d2dhb.Orbit{Radius: 2, Phase: float64(i)},
			StartOffset: time.Duration(20+7*i) * time.Second,
		}); err != nil {
			return err
		}
	}
	rep, err := sim.Run()
	if err != nil {
		return err
	}

	var forwarded, generated int
	for _, d := range rep.Devices {
		if d.UE != nil {
			forwarded += d.UE.SentViaD2D
			generated += d.UE.Generated
		}
	}
	relayRep, _ := rep.Device("relay")
	fmt.Printf("24 h, 4 UEs × 3 apps (WeChat+WhatsApp+QQ) through one relay\n")
	fmt.Printf("heartbeats: %d generated, %d forwarded over D2D (%d aggregated transmissions)\n",
		generated, forwarded, relayRep.Relay.Flushes)
	fmt.Printf("relay: %d credits earned, %.0f µAh spent\n",
		relay.Stats().Credits, float64(relayRep.Total))

	for _, d := range rep.Devices {
		if d.UE == nil {
			continue
		}
		fmt.Printf("%s: %.0f µAh/day, availability %.1f%%\n",
			d.ID, float64(d.Total), d.Availability*100)
	}
	fmt.Printf("deliveries: %d (%d late)\n", rep.Deliveries, rep.LateDeliveries)
	return nil
}
