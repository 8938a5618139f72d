package experiments

import (
	"fmt"

	"d2dhb/internal/cellular"
	"d2dhb/internal/core"
	"d2dhb/internal/metrics"
)

// StormRow summarizes one crowd density under both systems.
type StormRow struct {
	UEs int
	// PeakUtilOriginal / PeakUtilScheme are the busiest window's control-
	// channel load as a fraction of capacity (>1 means overload).
	PeakUtilOriginal float64
	PeakUtilScheme   float64
	// OverloadedOriginal / OverloadedScheme count overloaded windows.
	OverloadedOriginal int
	OverloadedScheme   int
}

// StormSweep reproduces the paper's operator-side motivation (Sections I
// and II-B): as crowd density grows, heartbeat signaling overloads the
// cell's control channel in the original system, while the D2D relaying
// scheme keeps the load within capacity substantially longer. Densities are
// swept at a fixed relay population over a fixed area.
func StormSweep(seed int64) ([]StormRow, *metrics.Table, error) {
	const (
		numRelays = 8
		side      = 100.0
		periods   = 3
	)
	profile := stdProfile()
	channel := cellular.DefaultChannelConfig()

	var rows []StormRow
	t := metrics.NewTable(
		"Signaling storm: peak control-channel utilization vs crowd density",
		"UEs", "orig peak util", "scheme peak util", "orig overloaded", "scheme overloaded")
	for _, n := range []int{25, 50, 100, 200} {
		c := crowd{
			opts:     core.Options{Seed: seed, Duration: periods * profile.Period, Channel: &channel},
			profile:  profile,
			relays:   numRelays,
			ues:      n,
			side:     side,
			capacity: 32,
		}
		origRep, err := c.original()
		if err != nil {
			return nil, nil, err
		}
		schemeRep, err := c.run()
		if err != nil {
			return nil, nil, err
		}
		row := StormRow{
			UEs:                n,
			PeakUtilOriginal:   origRep.Channel.PeakUtilization(channel),
			PeakUtilScheme:     schemeRep.Channel.PeakUtilization(channel),
			OverloadedOriginal: origRep.Channel.OverloadedWindows,
			OverloadedScheme:   schemeRep.Channel.OverloadedWindows,
		}
		rows = append(rows, row)
		t.AddRow(fmt.Sprintf("%d", n),
			metrics.Pct(row.PeakUtilOriginal), metrics.Pct(row.PeakUtilScheme),
			fmt.Sprintf("%d", row.OverloadedOriginal), fmt.Sprintf("%d", row.OverloadedScheme))
	}
	return rows, t, nil
}
