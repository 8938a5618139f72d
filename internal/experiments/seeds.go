package experiments

import (
	"fmt"
	"math"

	"d2dhb/internal/core"
	"d2dhb/internal/metrics"
)

// SeedStats summarizes one headline metric across seeds.
type SeedStats struct {
	Mean, Min, Max, StdDev float64
}

func seedStats(vals []float64) SeedStats {
	if len(vals) == 0 {
		return SeedStats{}
	}
	s := SeedStats{Min: vals[0], Max: vals[0]}
	for _, v := range vals {
		s.Mean += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean /= float64(len(vals))
	var ss float64
	for _, v := range vals {
		ss += (v - s.Mean) * (v - s.Mean)
	}
	s.StdDev = math.Sqrt(ss / float64(len(vals)))
	return s
}

// SeedRobustness reruns the two headline measurements (first-period UE
// saving; k=7 system saving) across n seeds and reports their spread. The
// only stochastic element in the pair scenario is RSSI shadowing during
// discovery, so the spread should be tight — a wide spread would mean the
// headline numbers are artifacts of one lucky seed.
type SeedRobustness struct {
	Seeds          int
	UESavingK1     SeedStats
	SystemSavingK7 SeedStats
	PairSaving     SeedStats
	Table          *metrics.Table
}

// SeedSweep measures headline metrics across n consecutive seeds starting
// at seed0.
func SeedSweep(seed0 int64, n int) (*SeedRobustness, error) {
	if n < 2 {
		return nil, fmt.Errorf("experiments: need >= 2 seeds, got %d", n)
	}
	var ueK1, sysK7, pairSaving []float64
	for i := 0; i < n; i++ {
		seed := seed0 + int64(i)
		curves, err := EnergyVsTransmissions(seed, 7)
		if err != nil {
			return nil, err
		}
		ueK1 = append(ueK1, curves.SavedUEPct[1]*100)
		sysK7 = append(sysK7, curves.SavedSystemPct[7]*100)

		m, err := stdPair(core.Options{Seed: seed, Duration: kPeriods(stdProfile(), 10)}, 1, 8).measure(nil)
		if err != nil {
			return nil, err
		}
		saving := 1 - float64(m.relay.RRC.L3Messages)/(2*float64(m.orig.TotalL3Messages))
		pairSaving = append(pairSaving, saving*100)
	}
	res := &SeedRobustness{
		Seeds:          n,
		UESavingK1:     seedStats(ueK1),
		SystemSavingK7: seedStats(sysK7),
		PairSaving:     seedStats(pairSaving),
	}
	t := metrics.NewTable(
		fmt.Sprintf("Headline robustness across %d seeds", n),
		"metric", "mean", "min", "max", "stddev")
	addRow := func(name string, s SeedStats) {
		t.AddRow(name, metrics.F(s.Mean), metrics.F(s.Min), metrics.F(s.Max), metrics.F(s.StdDev))
	}
	addRow("UE saving k=1 (%)", res.UESavingK1)
	addRow("system saving k=7 (%)", res.SystemSavingK7)
	addRow("pair signaling saving (%)", res.PairSaving)
	res.Table = t
	return res, nil
}
