package experiments

import (
	"fmt"

	"d2dhb/internal/core"
	"d2dhb/internal/d2d"
	"d2dhb/internal/metrics"
)

// DensityRow summarizes the scheme's payoff at one relay density.
type DensityRow struct {
	Relays int
	// MatchedUEs is how many of the UEs found a relay at least once.
	MatchedUEs int
	// L3Saving and EnergySaving compare against the same crowd with D2D
	// disabled.
	L3Saving     float64
	EnergySaving float64
	UESaving     float64
}

// RelayDensitySweep measures how the framework's savings depend on relay
// participation: 80 UEs over a 100 m square for 10 periods, with 2..16
// volunteer relays. Sparse relay populations leave most UEs paying
// discovery costs for nothing; the savings grow with density — the
// operator's deployment lever for the incentive budget.
func RelayDensitySweep(seed int64) ([]DensityRow, *metrics.Table, error) {
	const (
		numUEs  = 80
		side    = 100.0
		periods = 10
	)
	profile := stdProfile()

	var rows []DensityRow
	t := metrics.NewTable(
		"Relay density sweep (80 UEs, 100 m square, 10 periods)",
		"relays", "matched UEs", "L3 saving", "energy saving", "UE energy saving")
	for _, relays := range []int{2, 4, 8, 16} {
		c := crowd{
			opts:     core.Options{Seed: seed, Duration: periods * profile.Period},
			profile:  profile,
			relays:   relays,
			ues:      numUEs,
			side:     side,
			capacity: 16,
		}
		rep, err := c.run()
		if err != nil {
			return nil, nil, err
		}
		base, err := c.original()
		if err != nil {
			return nil, nil, err
		}
		row := DensityRow{Relays: relays}
		for _, d := range rep.Devices {
			if d.UE != nil && d.UE.Matches > 0 {
				row.MatchedUEs++
			}
		}
		row.L3Saving = 1 - float64(rep.TotalL3Messages)/float64(base.TotalL3Messages)
		row.EnergySaving = 1 - float64(rep.TotalEnergy())/float64(base.TotalEnergy())
		ueScheme := rep.EnergyByRole(d2d.RoleUE)
		ueBase := base.EnergyByRole(d2d.RoleUE)
		if ueBase > 0 {
			row.UESaving = 1 - float64(ueScheme)/float64(ueBase)
		}
		rows = append(rows, row)
		t.AddRow(fmt.Sprintf("%d", relays), fmt.Sprintf("%d/%d", row.MatchedUEs, numUEs),
			metrics.Pct(row.L3Saving), metrics.Pct(row.EnergySaving), metrics.Pct(row.UESaving))
	}
	return rows, t, nil
}
