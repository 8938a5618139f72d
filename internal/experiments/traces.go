package experiments

import (
	"time"

	"d2dhb/internal/energy"
	"d2dhb/internal/metrics"
)

// TraceResult reproduces one current-trace figure (Fig. 6 or Fig. 7).
type TraceResult struct {
	Name  string
	Trace energy.Trace
	// PeakMA is the maximum instant current.
	PeakMA float64
	// HighPowerTime is time spent above 300 mA — the "lingering in a high
	// power state" the paper highlights.
	HighPowerTime time.Duration
	// Charge is the above-baseline integral in µAh.
	Charge energy.MicroAmpHours
}

// Fig6 synthesizes the D2D transfer current trace: a short spurt that
// descends rapidly.
func Fig6(model energy.Model) TraceResult {
	tr := model.D2DTransferTrace()
	return traceResult("Fig. 6: energy consumption in D2D transfer", tr)
}

// Fig7 synthesizes the cellular transfer current trace: a spurt that lasts
// for a much longer period (the RRC high-power tail).
func Fig7(model energy.Model) TraceResult {
	tr := model.CellularTransferTrace()
	return traceResult("Fig. 7: energy consumption in cellular transfer", tr)
}

func traceResult(name string, tr energy.Trace) TraceResult {
	return TraceResult{
		Name:          name,
		Trace:         tr,
		PeakMA:        tr.PeakMA(),
		HighPowerTime: tr.HighPowerTime(300),
		Charge:        tr.IntegrateAboveBaseline(),
	}
}

// Blocks prints the trace's headline numbers as a table, or under -csv its
// samples.
func (r TraceResult) Blocks() ([][]Block, error) {
	t := metrics.NewTable(r.Name, "metric", "value")
	t.AddRow("peak current (mA)", metrics.F(r.PeakMA))
	t.AddRow("time above 300 mA (s)", metrics.F(r.HighPowerTime.Seconds()))
	t.AddRow("charge above idle (µAh)", metrics.F(float64(r.Charge)))
	t.AddRow("window (s)", metrics.F(r.Trace.Duration().Seconds()))
	return one(Block{t.String(), r.Trace.CSV()})
}
