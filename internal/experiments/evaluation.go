package experiments

import (
	"fmt"

	"d2dhb/internal/energy"
	"d2dhb/internal/metrics"
)

// An Entry is one run of the paper's evaluation with the arguments it is
// reproduced at.
type Entry struct {
	// Name is the entry's block in testdata/evaluation.golden and its
	// BenchmarkEvaluation sub-benchmark.
	Name string
	// IDs are the d2dbench -only ids its result prints under, one per
	// list its Blocks return.
	IDs []string
	// Run runs the experiment at seed.
	Run func(seed int64) (Result, error)
}

// A Result is what an Entry's Run returns. Blocks is what it prints: one
// list of blocks per id of its entry, in order.
type Result interface {
	Blocks() ([][]Block, error)
}

// A Block is one printed table, figure, trace or headline: its aligned
// text and its CSV, which d2dbench -csv prints and -out saves. A headline
// has no CSV; -csv prints its text.
type Block struct{ Text, CSV string }

// Evaluation is every run of the paper's evaluation (Section V), its
// extension studies and its ablations, in the order d2dbench prints them;
// the entries of one id are adjacent. The city kernels and ReplaySim take
// a configuration, not a seed; the bench's report digests pin them.
var Evaluation = []Entry{
	{"Table1", []string{"table1"}, seeded(Table1)},
	{"Fig6", []string{"fig6"}, func(int64) (Result, error) { return Fig6(energy.DefaultModel()), nil }},
	{"Fig7", []string{"fig7"}, func(int64) (Result, error) { return Fig7(energy.DefaultModel()), nil }},
	{"Table3", []string{"table3"}, seeded(Table3)},
	{"EnergyVsTransmissions", []string{"fig8", "fig9"}, func(seed int64) (Result, error) { return EnergyVsTransmissions(seed, 8) }},
	{"RelayMultiUE", []string{"fig10", "fig11"}, func(seed int64) (Result, error) { return RelayMultiUE(seed, 7) }},
	{"Table4", []string{"table4"}, seeded(Table4)},
	{"DistanceSweep", []string{"fig12"}, sweep(DistanceSweep, 3)},
	{"MessageSizeSweep", []string{"fig13"}, sweep(MessageSizeSweep, 3)},
	{"Fig15", []string{"fig15"}, func(seed int64) (Result, error) { return Fig15(seed, 10) }},
	{"RelayDensitySweep", []string{"density"}, rowsAndTable(RelayDensitySweep)},
	{"StormSweep", []string{"storm"}, rowsAndTable(StormSweep)},
	{"BatteryShare", []string{"battery"}, seeded(BatteryShare)},
	{"PeriodicExtension", []string{"extension"}, seeded(PeriodicExtension)},
	{"SeedSweep", []string{"seeds"}, func(seed int64) (Result, error) { return SeedSweep(seed, 5) }},
	{"CalibrationSensitivity", []string{"sensitivity"}, rowsAndTable(CalibrationSensitivity)},
	{"DelayByPolicy", []string{"delay"}, rowsAndTable(DelayByPolicy)},
	{"Incentive", []string{"incentive"}, rowsAndTable(Incentive)},
	{"PolicyAblation", []string{"ablations"}, rowsAndTable(PolicyAblation)},
	{"TechniqueAblation", []string{"ablations"}, rowsAndTable(TechniqueAblation)},
	{"PrejudgmentAblation", []string{"ablations"}, rowsAndTable(PrejudgmentAblation)},
	{"FeedbackAblation", []string{"ablations"}, rowsAndTable(FeedbackAblation)},
	{"CapacityAblation", []string{"ablations"}, rowsAndTable(CapacityAblation)},
	{"CoverageAblation", []string{"ablations"}, rowsAndTable(CoverageAblation)},
	{"ExpiryFactorAblation", []string{"ablations"}, rowsAndTable(ExpiryFactorAblation)},
}

// seeded adapts an experiment that takes only the seed.
func seeded[R Result](f func(int64) (R, error)) func(int64) (Result, error) {
	return func(seed int64) (Result, error) { return f(seed) }
}

// rowsAndTable adapts an experiment that returns its rows and their table.
func rowsAndTable[R any](f func(int64) (R, *metrics.Table, error)) func(int64) (Result, error) {
	return func(seed int64) (Result, error) {
		rows, table, err := f(seed)
		return tabledRows[R]{rows, table}, err
	}
}

// tabledRows is an experiment's rows and the table that prints them.
type tabledRows[R any] struct {
	Rows  R
	Table *metrics.Table
}

// Blocks prints the rows' table.
func (r tabledRows[R]) Blocks() ([][]Block, error) { return one(tableBlock(r.Table)) }

// sweep adapts a sweep of k transmissions, whose result is its figure.
func sweep(f func(seed int64, k int) (*metrics.Figure, error), k int) func(int64) (Result, error) {
	return func(seed int64) (Result, error) {
		fig, err := f(seed, k)
		return (*sweepFigure)(fig), err
	}
}

// sweepFigure is a sweep's figure as a Result; it dumps as the figure.
type sweepFigure metrics.Figure

// Blocks prints the figure.
func (f *sweepFigure) Blocks() ([][]Block, error) {
	return one(tableBlock((*metrics.Figure)(f).Table()))
}

// one is the blocks of a result that prints one block under one id.
func one(b Block) ([][]Block, error) { return [][]Block{{b}}, nil }

// tableBlock prints a table.
func tableBlock(t *metrics.Table) Block { return Block{t.String(), t.CSV()} }

// figureBlock prints the figure of the given series.
func figureBlock(title, xlabel string, x []float64, series []metrics.Series) (Block, error) {
	f, err := figure(title, xlabel, x, series)
	if err != nil {
		return Block{}, err
	}
	return tableBlock(f.Table()), nil
}

// headline prints one line of text, under -csv too.
func headline(format string, args ...any) Block {
	return Block{Text: fmt.Sprintf(format+"\n", args...)}
}
