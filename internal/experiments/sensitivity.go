package experiments

import (
	"d2dhb/internal/core"
	"d2dhb/internal/energy"
	"d2dhb/internal/metrics"
)

// SensitivityRow summarizes the headline savings at one calibration of the
// per-transmission cellular energy.
type SensitivityRow struct {
	// CellularTxBase is the calibrated charge of one cellular heartbeat
	// transmission (µAh); the default 598 anchors the paper's 55 %
	// first-period UE saving.
	CellularTxBase float64
	// UESavingK1 is the UE saving on the first forwarded message.
	UESavingK1 float64
	// SystemSavingK7 is the whole-system saving at seven forwards.
	SystemSavingK7 float64
	// BreakEvenK is the first transmission count at which the whole
	// system saves energy (0 if never within 8).
	BreakEvenK int
}

// CalibrationSensitivity sweeps the cellular-transmission energy constant
// ±50 % around the calibrated 598 µAh and recomputes the headline savings.
// The paper's qualitative claims should be robust to calibration error:
// the UE always saves heavily, and the system breaks even within a few
// forwarded messages — only the exact percentages move.
func CalibrationSensitivity(seed int64) ([]SensitivityRow, *metrics.Table, error) {
	var rows []SensitivityRow
	t := metrics.NewTable(
		"Sensitivity: headline savings vs cellular-energy calibration",
		"E_cell (µAh)", "UE saving k=1", "system saving k=7", "break-even k")
	for _, base := range []float64{300, 450, 598, 750, 900} {
		model := energy.DefaultModel()
		model.CellularTxBase = energy.MicroAmpHours(base)

		row := SensitivityRow{CellularTxBase: base}
		for k := 1; k <= 8; k++ {
			opts := core.Options{Seed: seed, Duration: kPeriods(stdProfile(), k), EnergyModel: &model}
			m, err := stdPair(opts, 1, 8).measure(nil)
			if err != nil {
				return nil, nil, err
			}
			ue, relay, orig := m.ueE, m.relayE, m.origE
			sysSaving := (2*orig - ue - relay) / (2 * orig)
			if k == 1 {
				row.UESavingK1 = 1 - ue/orig
			}
			if k == 7 {
				row.SystemSavingK7 = sysSaving
			}
			if row.BreakEvenK == 0 && sysSaving > 0 {
				row.BreakEvenK = k
			}
		}
		rows = append(rows, row)
		t.AddRow(metrics.F(base), metrics.Pct(row.UESavingK1),
			metrics.Pct(row.SystemSavingK7), metrics.F(float64(row.BreakEvenK)))
	}
	return rows, t, nil
}
