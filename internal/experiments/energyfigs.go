package experiments

import (
	"fmt"

	"d2dhb/internal/core"
	"d2dhb/internal/energy"
	"d2dhb/internal/matching"
	"d2dhb/internal/metrics"
)

// Table3Result reproduces Table III: energy per phase for UE and relay.
type Table3Result struct {
	Table *metrics.Table
	// Measured per-phase charge (µAh) for one forwarded heartbeat at 1 m.
	UEDiscovery, UEConnection, UEForwarding          float64
	RelayDiscovery, RelayConnection, RelayForwarding float64
}

// Blocks prints Table III.
func (r *Table3Result) Blocks() ([][]Block, error) { return one(tableBlock(r.Table)) }

// Paper values for Table III (µAh).
var table3Paper = struct {
	ueDisc, ueConn, ueFwd float64
	rDisc, rConn, rFwd    float64
}{132.24, 63.74, 73.09, 122.50, 60.29, 132.45}

// Table3 measures per-phase energy in the one-relay/one-UE scenario with a
// single forwarded heartbeat at 1 m.
func Table3(seed int64) (*Table3Result, error) {
	rep, err := stdPair(core.Options{Seed: seed, Duration: kPeriods(stdProfile(), 1)}, 1, 8).run()
	if err != nil {
		return nil, err
	}
	ue, err := deviceReport(rep, "ue-01")
	if err != nil {
		return nil, err
	}
	relay, err := deviceReport(rep, "relay")
	if err != nil {
		return nil, err
	}
	res := &Table3Result{
		UEDiscovery:     float64(ue.Energy[energy.PhaseDiscovery]),
		UEConnection:    float64(ue.Energy[energy.PhaseConnection]),
		UEForwarding:    float64(ue.Energy[energy.PhaseD2DSend]),
		RelayDiscovery:  float64(relay.Energy[energy.PhaseDiscovery]),
		RelayConnection: float64(relay.Energy[energy.PhaseConnection]),
		RelayForwarding: float64(relay.Energy[energy.PhaseD2DRecv]),
	}
	t := metrics.NewTable("Table III: energy consumption in different phases (µAh)",
		"role", "phase", "paper", "measured")
	t.AddRow("UE", "discovery", metrics.F(table3Paper.ueDisc), metrics.F(res.UEDiscovery))
	t.AddRow("UE", "connection", metrics.F(table3Paper.ueConn), metrics.F(res.UEConnection))
	t.AddRow("UE", "forwarding", metrics.F(table3Paper.ueFwd), metrics.F(res.UEForwarding))
	t.AddRow("relay", "discovery", metrics.F(table3Paper.rDisc), metrics.F(res.RelayDiscovery))
	t.AddRow("relay", "connection", metrics.F(table3Paper.rConn), metrics.F(res.RelayConnection))
	t.AddRow("relay", "forwarding", metrics.F(table3Paper.rFwd), metrics.F(res.RelayForwarding))
	res.Table = t
	return res, nil
}

// EnergyCurves holds the per-transmission-count energy measurements behind
// Figs. 8 and 9.
type EnergyCurves struct {
	// K is the transmission-count axis (0..maxK).
	K []float64
	// UE, Relay and Original are device totals in µAh.
	UE, Relay, Original []float64
	// SavedSystem and SavedUE are absolute savings in µAh (Fig. 8's two
	// extra series).
	SavedSystem, SavedUE []float64
	// SavedSystemPct and SavedUEPct are the Fig. 9 percentages (defined
	// for k >= 1; index 0 is zero).
	SavedSystemPct, SavedUEPct []float64
}

// EnergyVsTransmissions measures UE, relay and original-system energy for
// 0..maxK forwarded heartbeats over one D2D connection (1 UE at 1 m), the
// data behind Figs. 8 and 9.
func EnergyVsTransmissions(seed int64, maxK int) (*EnergyCurves, error) {
	if maxK < 1 {
		return nil, fmt.Errorf("experiments: maxK must be >= 1, got %d", maxK)
	}
	c := &EnergyCurves{
		K:              []float64{0},
		UE:             []float64{0},
		Relay:          []float64{0},
		Original:       []float64{0},
		SavedSystem:    []float64{0},
		SavedUE:        []float64{0},
		SavedSystemPct: []float64{0},
		SavedUEPct:     []float64{0},
	}
	for k := 1; k <= maxK; k++ {
		m, err := stdPair(core.Options{Seed: seed, Duration: kPeriods(stdProfile(), k)}, 1, 8).measure(nil)
		if err != nil {
			return nil, err
		}
		ue, relay, orig := m.ueE, m.relayE, m.origE
		c.K = append(c.K, float64(k))
		c.UE = append(c.UE, ue)
		c.Relay = append(c.Relay, relay)
		c.Original = append(c.Original, orig)
		savedSys := 2*orig - (ue + relay)
		savedUE := orig - ue
		c.SavedSystem = append(c.SavedSystem, savedSys)
		c.SavedUE = append(c.SavedUE, savedUE)
		c.SavedSystemPct = append(c.SavedSystemPct, savedSys/(2*orig))
		c.SavedUEPct = append(c.SavedUEPct, savedUE/orig)
	}
	return c, nil
}

// Blocks prints Fig. 8 (energy against transmissions for the whole system,
// UE and relay), then Fig. 9 (the saved-energy percentages) and its
// headline.
func (c *EnergyCurves) Blocks() ([][]Block, error) {
	fig8, err := figureBlock("Fig. 8: energy consumption comparison (µAh)", "transmissions", c.K, []metrics.Series{
		{Name: "UE", Y: c.UE},
		{Name: "Relay", Y: c.Relay},
		{Name: "Original System", Y: c.Original},
		{Name: "Saved Energy of System", Y: c.SavedSystem},
		{Name: "Saved Energy of UE", Y: c.SavedUE},
	})
	if err != nil {
		return nil, err
	}
	pct := func(v []float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * 100
		}
		return out
	}
	fig9, err := figureBlock("Fig. 9: saved energy (%)", "transmissions", c.K, []metrics.Series{
		{Name: "Saved Energy of System", Y: pct(c.SavedSystemPct)},
		{Name: "Saved Energy of UE", Y: pct(c.SavedUEPct)},
	})
	return [][]Block{{fig8}, {fig9, headline("headline: UE saving at k=1 = %.1f%% (paper ≈55%%); system saving at k=7 = %.1f%% (paper ≈36%%)",
		c.SavedUEPct[1]*100, c.SavedSystemPct[7]*100)}}, err
}

// MultiUECurves holds the Fig. 10 / Fig. 11 measurements: relay energy and
// wasted/saved ratio when serving multiple UEs.
type MultiUECurves struct {
	K      []float64         // transmissions 1..maxK
	NumUEs []int             // the UE counts measured
	RelayE map[int][]float64 // relay total energy per UE count
	Ratio  map[int][]float64 // wasted(relay)/saved(UEs) percentage
}

// RelayMultiUE measures relay energy with 1/3/5/7 connected UEs (Fig. 10)
// and the wasted-to-saved energy ratio (Fig. 11).
func RelayMultiUE(seed int64, maxK int) (*MultiUECurves, error) {
	if maxK < 1 {
		return nil, fmt.Errorf("experiments: maxK must be >= 1, got %d", maxK)
	}
	counts := []int{1, 3, 5, 7}
	res := &MultiUECurves{
		NumUEs: counts,
		RelayE: make(map[int][]float64, len(counts)),
		Ratio:  make(map[int][]float64, len(counts)),
	}
	for k := 1; k <= maxK; k++ {
		res.K = append(res.K, float64(k))
		h := kPeriods(stdProfile(), k)
		// Every UE count is measured against the same original device.
		var orig *core.Report
		for _, n := range counts {
			m, err := stdPair(core.Options{Seed: seed, Duration: h}, n, n+1).measure(orig)
			if err != nil {
				return nil, err
			}
			orig = m.orig
			wasted := m.relayE - m.origE
			saved := float64(n)*m.origE - m.ueE
			res.RelayE[n] = append(res.RelayE[n], m.relayE)
			ratio := 0.0
			if saved > 0 {
				ratio = wasted / saved * 100
			}
			res.Ratio[n] = append(res.Ratio[n], ratio)
		}
	}
	return res, nil
}

// Blocks prints Fig. 10 (relay energy against transmissions for each UE
// count), then Fig. 11 (the wasted/saved energy ratio) and its headline.
func (m *MultiUECurves) Blocks() ([][]Block, error) {
	fig10, err := figureBlock("Fig. 10: energy consumption of a relay with multiple UEs (µAh)",
		"transmissions", m.K, m.byUECount(m.RelayE))
	if err != nil {
		return nil, err
	}
	fig11, err := figureBlock("Fig. 11: ratio of wasted energy to saved energy (%)",
		"transmissions", m.K, m.byUECount(m.Ratio))
	return [][]Block{{fig10}, {fig11, headline("headline: ratio drops from %.1f%% (1 UE, k=1) to %.1f%% (7 UEs, k=7); paper: ≈97%% → ≈5%%",
		m.Ratio[1][0], m.Ratio[7][len(m.K)-1])}}, err
}

// byUECount is one series of y per UE count.
func (m *MultiUECurves) byUECount(y map[int][]float64) []metrics.Series {
	series := make([]metrics.Series, len(m.NumUEs))
	for i, n := range m.NumUEs {
		series[i] = metrics.Series{Name: fmt.Sprintf("Relay with %d UE(s)", n), Y: y[n]}
	}
	return series
}

// Table4Paper holds the paper's receiving-phase energies for 1..7 UEs
// (µAh).
var Table4Paper = []float64{123.22, 252.40, 386.106, 517.97, 655.82, 791.178, 911.196}

// Table4Result reproduces Table IV: relay receive energy versus the number
// of connected UEs (one collection round).
type Table4Result struct {
	NumUEs   []int
	Paper    []float64
	Measured []float64
	Table    *metrics.Table
}

// Blocks prints Table IV.
func (r *Table4Result) Blocks() ([][]Block, error) { return one(tableBlock(r.Table)) }

// Table4 measures the relay's D2D receive charge for one collection round
// with 1..7 connected UEs.
func Table4(seed int64) (*Table4Result, error) {
	res := &Table4Result{Paper: Table4Paper}
	t := metrics.NewTable("Table IV: energy consumption in D2D receiving (µAh)",
		"UEs", "paper", "measured")
	h := kPeriods(stdProfile(), 1)
	for n := 1; n <= 7; n++ {
		rep, err := stdPair(core.Options{Seed: seed, Duration: h}, n, n+1).run()
		if err != nil {
			return nil, err
		}
		relay, err := deviceReport(rep, "relay")
		if err != nil {
			return nil, err
		}
		got := float64(relay.Energy[energy.PhaseD2DRecv])
		res.NumUEs = append(res.NumUEs, n)
		res.Measured = append(res.Measured, got)
		t.AddRow(metrics.F(float64(n)), metrics.F(Table4Paper[n-1]), metrics.F(got))
	}
	res.Table = t
	return res, nil
}

// DistanceSweep measures energy at several communication distances
// (Fig. 12): D2D cost rises with distance while the original system stays
// flat. The matching prejudgment bound is raised to 30 m for this
// experiment so the boundary flakiness at exactly 15 m (RSSI shadowing
// noise around MaxDistance) does not confound the pure distance-energy
// effect the paper plots.
func DistanceSweep(seed int64, k int) (*metrics.Figure, error) {
	match := matching.DefaultConfig()
	match.MaxDistance = 30
	opts := core.Options{Seed: seed, Duration: kPeriods(stdProfile(), k), Match: &match}
	distances := []float64{1, 5, 10, 15}
	var ue, relay, orig, savedUE []float64
	// Every distance is measured against the same original device.
	var origRep *core.Report
	for _, d := range distances {
		m, err := pair{opts: opts, profile: stdProfile(), ues: 1, distance: d, capacity: 8}.measure(origRep)
		if err != nil {
			return nil, err
		}
		origRep = m.orig
		ue = append(ue, m.ueE)
		relay = append(relay, m.relayE)
		orig = append(orig, m.origE)
		savedUE = append(savedUE, m.origE-m.ueE)
	}
	return figure("Fig. 12: energy consumption at different communication distances (µAh)",
		"distance (m)", distances, []metrics.Series{
			{Name: "Saved Energy of UE", Y: savedUE},
			{Name: "UE", Y: ue},
			{Name: "Original System", Y: orig},
			{Name: "Relay", Y: relay},
		})
}

// MessageSizeSweep measures energy at 1×..5× the standard 54 B heartbeat
// size (Fig. 13): nearly flat for small messages.
func MessageSizeSweep(seed int64, k int) (*metrics.Figure, error) {
	opts := core.Options{Seed: seed, Duration: kPeriods(stdProfile(), k)}
	multipliers := []float64{1, 2, 3, 4, 5}
	var ue, relay, orig []float64
	for _, mult := range multipliers {
		profile := stdProfile()
		profile.Size = int(mult) * energy.ReferenceMessageSize
		m, err := pair{opts: opts, profile: profile, ues: 1, distance: 1, capacity: 8}.measure(nil)
		if err != nil {
			return nil, err
		}
		ue = append(ue, m.ueE)
		relay = append(relay, m.relayE)
		orig = append(orig, m.origE)
	}
	return figure("Fig. 13: energy consumption at different message sizes (µAh)",
		"size multiplier (×54B)", multipliers, []metrics.Series{
			{Name: "UE", Y: ue},
			{Name: "Original System", Y: orig},
			{Name: "Relay", Y: relay},
		})
}
