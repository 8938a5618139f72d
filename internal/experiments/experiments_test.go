package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"d2dhb/internal/core"
	"d2dhb/internal/energy"
)

func TestTable1SharesMatchPaper(t *testing.T) {
	res, err := Table1(DefaultSeed)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.AbsErr > 0.03 {
			t.Errorf("%s: share error %.3f, want <= 0.03 (paper %.3f, measured %.3f)",
				row.App, row.AbsErr, row.Paper, row.Measured)
		}
	}
	if res.Table.String() == "" {
		t.Fatal("empty table rendering")
	}
}

func TestFig6Fig7Shapes(t *testing.T) {
	model := energy.DefaultModel()
	d2d := Fig6(model)
	cell := Fig7(model)
	// Fig. 6 vs Fig. 7: the cellular transfer lingers in high power much
	// longer and costs several times the charge.
	if cell.HighPowerTime <= 3*d2d.HighPowerTime {
		t.Fatalf("cellular high-power %v not ≫ D2D %v", cell.HighPowerTime, d2d.HighPowerTime)
	}
	if cell.Charge <= 3*d2d.Charge {
		t.Fatalf("cellular charge %v not ≫ D2D %v", cell.Charge, d2d.Charge)
	}
	for _, r := range []TraceResult{d2d, cell} {
		if b, _ := r.Blocks(); !strings.Contains(b[0][0].Text, "peak current") {
			t.Fatalf("%s: summary %q", r.Name, b[0][0].Text)
		}
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	res, err := Table3(DefaultSeed)
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	within := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want)/want > tol {
			t.Errorf("%s = %.2f, paper %.2f (tol %.0f%%)", name, got, want, tol*100)
		}
	}
	// Discovery/connection/forwarding on both sides are calibrated
	// directly from Table III and must match tightly.
	within("UE discovery", res.UEDiscovery, table3Paper.ueDisc, 0.01)
	within("UE connection", res.UEConnection, table3Paper.ueConn, 0.01)
	within("UE forwarding", res.UEForwarding, table3Paper.ueFwd, 0.01)
	within("relay discovery", res.RelayDiscovery, table3Paper.rDisc, 0.01)
	within("relay connection", res.RelayConnection, table3Paper.rConn, 0.01)
	// The relay's forwarding (receive) phase is modeled from Table IV's
	// first-round cost; allow a 10 % residual vs Table III's 132.45.
	within("relay forwarding", res.RelayForwarding, table3Paper.rFwd, 0.10)
}

func TestEnergyVsTransmissionsShapes(t *testing.T) {
	c, err := EnergyVsTransmissions(DefaultSeed, 8)
	if err != nil {
		t.Fatalf("EnergyVsTransmissions: %v", err)
	}
	if len(c.K) != 9 {
		t.Fatalf("points = %d, want 9 (k=0..8)", len(c.K))
	}
	// Fig. 8 shape: UE ≪ relay; relay slightly above original with a
	// near-constant offset; everything increases with k.
	for i := 1; i < len(c.K); i++ {
		if c.UE[i] >= c.Relay[i] {
			t.Fatalf("k=%d: UE %v >= relay %v", i, c.UE[i], c.Relay[i])
		}
		if c.Relay[i] <= c.Original[i] {
			t.Fatalf("k=%d: relay %v <= original %v (relay must be slightly higher)",
				i, c.Relay[i], c.Original[i])
		}
		if c.UE[i] <= c.UE[i-1] || c.Original[i] <= c.Original[i-1] {
			t.Fatalf("k=%d: curves not increasing", i)
		}
	}
	// Section V-A headline: ≈55 % UE saving on the first period.
	if got := c.SavedUEPct[1]; got < 0.50 || got > 0.60 {
		t.Fatalf("UE saving at k=1 = %.1f%%, want ≈55%%", got*100)
	}
	// System break-even on the first forwarded message.
	if got := math.Abs(c.SavedSystemPct[1]); got > 0.08 {
		t.Fatalf("system saving at k=1 = %.1f%%, want ≈0%%", c.SavedSystemPct[1]*100)
	}
	// "Up to 36 %" system saving by k=7; we accept >= 30 %.
	if got := c.SavedSystemPct[7]; got < 0.30 {
		t.Fatalf("system saving at k=7 = %.1f%%, want >= 30%%", got*100)
	}
	// UE saving grows with connection time.
	for i := 2; i < len(c.SavedUEPct); i++ {
		if c.SavedUEPct[i] < c.SavedUEPct[i-1] {
			t.Fatalf("UE saving not monotone at k=%d", i)
		}
	}
	// Figure renderings: a CSV column per series beside the x-axis.
	b, err := c.Blocks()
	if err != nil {
		t.Fatalf("Blocks: %v", err)
	}
	series := func(b Block) int { return strings.Count(strings.SplitN(b.CSV, "\n", 2)[0], ",") }
	if s8, s9 := series(b[0][0]), series(b[1][0]); s8 != 5 || s9 != 2 {
		t.Fatalf("series = %d/%d, want 5/2", s8, s9)
	}
}

func TestRelayMultiUEShapes(t *testing.T) {
	m, err := RelayMultiUE(DefaultSeed, 7)
	if err != nil {
		t.Fatalf("RelayMultiUE: %v", err)
	}
	// Fig. 10: more UEs cost the relay more at every k.
	for i := range m.K {
		if !(m.RelayE[1][i] < m.RelayE[3][i] && m.RelayE[3][i] < m.RelayE[5][i] && m.RelayE[5][i] < m.RelayE[7][i]) {
			t.Fatalf("k=%v: relay energy not increasing with UEs: %v / %v / %v / %v",
				m.K[i], m.RelayE[1][i], m.RelayE[3][i], m.RelayE[5][i], m.RelayE[7][i])
		}
	}
	// Fig. 10: the multi-UE overhead becomes proportionally negligible as
	// the connection persists.
	relOverheadAt := func(i int) float64 {
		return (m.RelayE[7][i] - m.RelayE[1][i]) / m.RelayE[1][i]
	}
	if relOverheadAt(len(m.K)-1) >= relOverheadAt(0) {
		t.Fatalf("multi-UE overhead did not shrink: first %.2f, last %.2f",
			relOverheadAt(0), relOverheadAt(len(m.K)-1))
	}
	// Fig. 11: the wasted/saved ratio starts near ~97 % (1 UE, 1
	// transmission) and collapses with more UEs and transmissions.
	first := m.Ratio[1][0]
	if first < 70 || first > 110 {
		t.Fatalf("ratio at k=1, 1 UE = %.1f%%, want ≈97%%", first)
	}
	last := m.Ratio[7][len(m.K)-1]
	if last > 25 {
		t.Fatalf("ratio at k=7, 7 UEs = %.1f%%, want small (paper ≈5%%)", last)
	}
	if last >= first/4 {
		t.Fatalf("ratio did not collapse: %.1f%% → %.1f%%", first, last)
	}
	if _, err := m.Blocks(); err != nil {
		t.Fatalf("Blocks: %v", err)
	}
}

func TestTable4LinearInUEs(t *testing.T) {
	res, err := Table4(DefaultSeed)
	if err != nil {
		t.Fatalf("Table4: %v", err)
	}
	if len(res.Measured) != 7 {
		t.Fatalf("rows = %d, want 7", len(res.Measured))
	}
	// Approximately linear: per-UE marginal cost stays near the 1-UE
	// value.
	perUE := res.Measured[0]
	for i, got := range res.Measured {
		want := perUE * float64(i+1)
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("n=%d: receive %.2f, want ≈%.2f (linear)", i+1, got, want)
		}
		// And within 15 % of the paper's measured values.
		if math.Abs(got-res.Paper[i])/res.Paper[i] > 0.15 {
			t.Errorf("n=%d: receive %.2f vs paper %.2f", i+1, got, res.Paper[i])
		}
	}
}

func TestDistanceSweepShapes(t *testing.T) {
	f, err := DistanceSweep(DefaultSeed, 3)
	if err != nil {
		t.Fatalf("DistanceSweep: %v", err)
	}
	series := make(map[string][]float64, len(f.Series))
	for _, s := range f.Series {
		series[s.Name] = s.Y
	}
	ue, orig := series["UE"], series["Original System"]
	// Fig. 12: D2D cost grows with distance; the original system is flat.
	for i := 1; i < len(ue); i++ {
		if ue[i] <= ue[i-1] {
			t.Fatalf("UE energy not increasing with distance: %v", ue)
		}
		if orig[i] != orig[0] {
			t.Fatalf("original system not flat: %v", orig)
		}
	}
	// The UE saving shrinks with distance (crossover predicted beyond the
	// measured range).
	saved := series["Saved Energy of UE"]
	for i := 1; i < len(saved); i++ {
		if saved[i] >= saved[i-1] {
			t.Fatalf("UE saving not shrinking with distance: %v", saved)
		}
	}
}

func TestMessageSizeSweepFlat(t *testing.T) {
	f, err := MessageSizeSweep(DefaultSeed, 3)
	if err != nil {
		t.Fatalf("MessageSizeSweep: %v", err)
	}
	for _, s := range f.Series {
		min, max := s.Y[0], s.Y[0]
		for _, v := range s.Y {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		// Fig. 13: energy stays almost constant across 1×..5× sizes.
		if (max-min)/min > 0.06 {
			t.Errorf("series %q varies %.1f%% across sizes, want ~flat", s.Name, (max-min)/min*100)
		}
	}
}

func TestFig15SignalingSaving(t *testing.T) {
	res, err := Fig15(DefaultSeed, 10)
	if err != nil {
		t.Fatalf("Fig15: %v", err)
	}
	if len(res.K) != 10 {
		t.Fatalf("points = %d, want 10", len(res.K))
	}
	for i := range res.K {
		// The relay with 1 UE generates (nearly) the same signaling as the
		// original system: the aggregation is free signaling-wise.
		if math.Abs(res.RelayWith1UE[i]-res.Original[i]) > 1 {
			t.Fatalf("k=%v: relay-1UE L3 %v vs original %v, want equal",
				res.K[i], res.RelayWith1UE[i], res.Original[i])
		}
		// More payload per transmission costs slightly more signaling.
		if res.RelayWith2UEs[i] < res.RelayWith1UE[i] {
			t.Fatalf("k=%v: relay-2UE L3 %v below relay-1UE %v",
				res.K[i], res.RelayWith2UEs[i], res.RelayWith1UE[i])
		}
	}
	// Conclusion: "in the worst situation ... still reduce about 50 %".
	if res.PairSaving1UE < 0.48 {
		t.Fatalf("pair saving = %.1f%%, want ≈50%%", res.PairSaving1UE*100)
	}
	// Abstract: "more than 50 %" with more UEs connected.
	if res.TrioSaving2UEs <= 0.50 {
		t.Fatalf("trio saving = %.1f%%, want > 50%%", res.TrioSaving2UEs*100)
	}
	if _, err := res.Blocks(); err != nil {
		t.Fatalf("Blocks: %v", err)
	}
}

func TestRunPairValidation(t *testing.T) {
	for _, k := range []int{0, -1} {
		p := stdPair(core.Options{Seed: 1, Duration: kPeriods(stdProfile(), k)}, 1, 8)
		if _, err := p.run(); err == nil {
			t.Fatalf("k=%d accepted", k)
		}
		if _, err := p.original(); err == nil {
			t.Fatalf("k=%d accepted", k)
		}
	}
	if _, err := DistanceSweep(1, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := MessageSizeSweep(1, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := EnergyVsTransmissions(1, 0); err == nil {
		t.Fatal("maxK=0 accepted")
	}
	if _, err := RelayMultiUE(1, 0); err == nil {
		t.Fatal("maxK=0 accepted")
	}
	if _, err := Fig15(1, 0); err == nil {
		t.Fatal("maxK=0 accepted")
	}
}

func TestExactTransmissionAccounting(t *testing.T) {
	// The harness must produce exactly k forwarded heartbeats and k
	// aggregated transmissions for k periods — otherwise every
	// per-transmission figure is skewed.
	const k = 5
	m, err := stdPair(core.Options{Seed: DefaultSeed, Duration: kPeriods(stdProfile(), k)}, 1, 8).measure(nil)
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	relay, _ := m.pair.Device("relay")
	ue, _ := m.pair.Device("ue-01")
	if relay.Relay.Flushes != k {
		t.Fatalf("flushes = %d, want %d", relay.Relay.Flushes, k)
	}
	if ue.UE.Generated != k || ue.UE.SentViaD2D != k {
		t.Fatalf("UE generated/sent = %d/%d, want %d/%d",
			ue.UE.Generated, ue.UE.SentViaD2D, k, k)
	}
	if relay.RRC.Transmissions != k {
		t.Fatalf("relay transmissions = %d, want %d", relay.RRC.Transmissions, k)
	}
	// Complete RRC cycles: promotions == releases.
	if relay.RRC.Promotions != relay.RRC.Releases {
		t.Fatalf("incomplete RRC cycles: %d promotions, %d releases",
			relay.RRC.Promotions, relay.RRC.Releases)
	}
	od, _ := m.orig.Device("orig")
	if od.RRC.Transmissions != k || od.RRC.Promotions != od.RRC.Releases {
		t.Fatalf("original device cycles wrong: %+v", od.RRC)
	}
}

func TestDeterministicExperiments(t *testing.T) {
	a, err := EnergyVsTransmissions(7, 3)
	if err != nil {
		t.Fatalf("EnergyVsTransmissions: %v", err)
	}
	b, err := EnergyVsTransmissions(7, 3)
	if err != nil {
		t.Fatalf("EnergyVsTransmissions: %v", err)
	}
	for i := range a.K {
		if a.UE[i] != b.UE[i] || a.Relay[i] != b.Relay[i] {
			t.Fatalf("experiment not deterministic at k=%v", a.K[i])
		}
	}
}

func TestHorizonGraceCoversReleaseOnly(t *testing.T) {
	// Regression guard for the +10 s horizon: one period must yield
	// exactly one UE heartbeat even though the horizon extends past the
	// period boundary.
	rep, err := stdPair(core.Options{Seed: DefaultSeed, Duration: kPeriods(stdProfile(), 1)}, 1, 8).run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ue, _ := rep.Device("ue-01")
	if ue.UE.Generated != 1 {
		t.Fatalf("generated = %d in one period, want 1", ue.UE.Generated)
	}
	if rep.Duration != stdProfile().Period+10*time.Second {
		t.Fatalf("duration = %v", rep.Duration)
	}
}

func TestBatteryShareReproducesIntroClaim(t *testing.T) {
	res, err := BatteryShare(DefaultSeed)
	if err != nil {
		t.Fatalf("BatteryShare: %v", err)
	}
	// Section I: "at least 6% of its battery capacity ... even with only
	// one IM app running" per day.
	if res.OriginalDailyShare < 0.06 || res.OriginalDailyShare > 0.12 {
		t.Fatalf("original daily share = %.1f%%, want 6-12%%", res.OriginalDailyShare*100)
	}
	// The framework cuts that by a large factor for the UE.
	if res.UEDailyShare >= res.OriginalDailyShare/2 {
		t.Fatalf("UE share %.2f%% not well below original %.2f%%",
			res.UEDailyShare*100, res.OriginalDailyShare*100)
	}
	if res.Table.String() == "" {
		t.Fatal("empty table")
	}
}

func TestStormSweepShapes(t *testing.T) {
	rows, table, err := StormSweep(DefaultSeed)
	if err != nil {
		t.Fatalf("StormSweep: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for i, row := range rows {
		// The scheme always loads the channel less than the original.
		if row.PeakUtilScheme >= row.PeakUtilOriginal {
			t.Errorf("n=%d: scheme peak %.2f not below original %.2f",
				row.UEs, row.PeakUtilScheme, row.PeakUtilOriginal)
		}
		// Load grows with density under the original system.
		if i > 0 && row.PeakUtilOriginal <= rows[i-1].PeakUtilOriginal {
			t.Errorf("original peak not increasing with density at n=%d", row.UEs)
		}
		if row.OverloadedScheme > row.OverloadedOriginal {
			t.Errorf("n=%d: scheme overloads more windows (%d vs %d)",
				row.UEs, row.OverloadedScheme, row.OverloadedOriginal)
		}
	}
	// At the densest point the original system overloads.
	last := rows[len(rows)-1]
	if last.PeakUtilOriginal <= 1.0 {
		t.Errorf("original system never overloaded at 200 UEs (peak %.2f)", last.PeakUtilOriginal)
	}
	if table.String() == "" {
		t.Fatal("empty table")
	}
}

func TestRelayDensitySweep(t *testing.T) {
	rows, table, err := RelayDensitySweep(DefaultSeed)
	if err != nil {
		t.Fatalf("RelayDensitySweep: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].MatchedUEs <= rows[i-1].MatchedUEs {
			t.Errorf("matched UEs not growing with density: %d relays → %d, %d relays → %d",
				rows[i-1].Relays, rows[i-1].MatchedUEs, rows[i].Relays, rows[i].MatchedUEs)
		}
		if rows[i].L3Saving <= rows[i-1].L3Saving {
			t.Errorf("L3 saving not growing with density at %d relays", rows[i].Relays)
		}
	}
	// At healthy density the scheme pays off on every axis.
	last := rows[len(rows)-1]
	if last.L3Saving < 0.35 || last.EnergySaving < 0.10 || last.UESaving < 0.25 {
		t.Errorf("savings at 16 relays too low: %+v", last)
	}
	if table.String() == "" {
		t.Fatal("empty table")
	}
}

func TestPeriodicExtension(t *testing.T) {
	res, err := PeriodicExtension(DefaultSeed)
	if err != nil {
		t.Fatalf("PeriodicExtension: %v", err)
	}
	// Relaying the additional periodic traffic must increase the saving.
	if res.AllPeriodicSaving <= res.HeartbeatsOnlySaving {
		t.Fatalf("extension did not help: all %.2f vs heartbeats-only %.2f",
			res.AllPeriodicSaving, res.HeartbeatsOnlySaving)
	}
	if res.AllPeriodicSaving < 0.5 {
		t.Fatalf("all-periodic saving = %.1f%%, want >= 50%%", res.AllPeriodicSaving*100)
	}
	// The 3× delay tolerance keeps everything on time.
	if res.OnTimeRate < 0.999 {
		t.Fatalf("on-time rate = %v, want 1", res.OnTimeRate)
	}
	if res.Table.String() == "" {
		t.Fatal("empty table")
	}
}

func TestCalibrationSensitivity(t *testing.T) {
	rows, table, err := CalibrationSensitivity(DefaultSeed)
	if err != nil {
		t.Fatalf("CalibrationSensitivity: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for i, row := range rows {
		// Both savings rise monotonically with the cellular cost.
		if i > 0 {
			if row.UESavingK1 <= rows[i-1].UESavingK1 {
				t.Errorf("UE saving not increasing at E_cell=%v", row.CellularTxBase)
			}
			if row.SystemSavingK7 <= rows[i-1].SystemSavingK7 {
				t.Errorf("system saving not increasing at E_cell=%v", row.CellularTxBase)
			}
		}
		// Robust qualitative claims across the whole ±50% band: the UE
		// always saves, and the system breaks even within 3 forwards.
		if row.UESavingK1 <= 0 {
			t.Errorf("E_cell=%v: UE does not save at k=1 (%.2f)", row.CellularTxBase, row.UESavingK1)
		}
		if row.BreakEvenK == 0 || row.BreakEvenK > 3 {
			t.Errorf("E_cell=%v: break-even k = %d, want 1..3", row.CellularTxBase, row.BreakEvenK)
		}
	}
	// The calibrated point reproduces the headline values.
	calibrated := rows[2]
	if calibrated.UESavingK1 < 0.50 || calibrated.UESavingK1 > 0.60 {
		t.Errorf("calibrated UE saving = %.2f, want ≈0.55", calibrated.UESavingK1)
	}
	if table.String() == "" {
		t.Fatal("empty table")
	}
}

func TestSeedSweepRobustness(t *testing.T) {
	res, err := SeedSweep(DefaultSeed, 5)
	if err != nil {
		t.Fatalf("SeedSweep: %v", err)
	}
	// The only randomness in the pair scenario is RSSI shadowing during
	// discovery; headline metrics must be essentially seed-invariant.
	if res.UESavingK1.StdDev > 1.0 {
		t.Errorf("UE saving stddev = %.2f points, want tight", res.UESavingK1.StdDev)
	}
	if res.SystemSavingK7.StdDev > 1.0 {
		t.Errorf("system saving stddev = %.2f points, want tight", res.SystemSavingK7.StdDev)
	}
	if res.UESavingK1.Mean < 50 || res.UESavingK1.Mean > 60 {
		t.Errorf("mean UE saving = %.1f%%, want ≈55%%", res.UESavingK1.Mean)
	}
	if res.PairSaving.Mean < 45 {
		t.Errorf("mean pair saving = %.1f%%, want ≈50%%", res.PairSaving.Mean)
	}
	if _, err := SeedSweep(1, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if res.Table.String() == "" {
		t.Fatal("empty table")
	}
}
