// Command d2dbench regenerates every table and figure of the paper's
// evaluation section and prints paper-vs-measured comparisons.
//
// Usage:
//
//	d2dbench [-seed N] [-csv] [-out dir] [-only id]
//
// -csv prints every table and figure as CSV, and each trace as its CSV
// samples instead of its summary; a headline (one sentence, no table)
// stays text. -out also saves every table and figure as a CSV file.
// -only runs one experiment; -h lists the ids it accepts. The repo's
// performance benchmark is bench/run.sh, not this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"d2dhb/internal/energy"
	"d2dhb/internal/experiments"
	"d2dhb/internal/metrics"
)

// An output is one piece of a section: what it prints without and with
// -csv, and the CSV file -out saves (none for a headline).
type output struct {
	text, csvText, file string
}

func tableOut(t *metrics.Table) output { c := t.CSV(); return output{t.String(), c, c} }

func traceOut(r experiments.TraceResult) output {
	c := r.Trace.CSV()
	return output{r.Summary().String(), c, c}
}

func headline(format string, args ...any) output {
	s := fmt.Sprintf(format+"\n", args...)
	return output{text: s, csvText: s}
}

// figure is the output of a figure that rendered.
func figure(f *metrics.Figure, err error) ([]output, error) {
	if err != nil {
		return nil, err
	}
	c := f.Table().CSV()
	return []output{{f.String(), c, c}}, nil
}

// evaluation is one run's seed and the results two sections share:
// fig8/fig9 one EnergyVsTransmissions run, fig10/fig11 one RelayMultiUE run.
type evaluation struct {
	seed   int64
	energy func() (*experiments.EnergyCurves, error)
	multi  func() (*experiments.MultiUECurves, error)
}

func newEvaluation(seed int64) *evaluation {
	return &evaluation{
		seed:   seed,
		energy: sync.OnceValues(func() (*experiments.EnergyCurves, error) { return experiments.EnergyVsTransmissions(seed, 8) }),
		multi:  sync.OnceValues(func() (*experiments.MultiUECurves, error) { return experiments.RelayMultiUE(seed, 7) }),
	}
}

// A compute runs a section's experiments, or reads the results it shares,
// and returns what the section prints and saves.
type compute func(e *evaluation) ([]output, error)

// table is the section of an experiment whose result carries one table.
func table[R any](run func(int64) (R, error), get func(R) *metrics.Table) compute {
	return func(e *evaluation) ([]output, error) {
		res, err := run(e.seed)
		if err != nil {
			return nil, err
		}
		return []output{tableOut(get(res))}, nil
	}
}

// rows is the section of an experiment that returns its rows and their
// table.
func rows[R any](run func(int64) (R, *metrics.Table, error)) compute {
	return table(func(seed int64) (*metrics.Table, error) {
		_, t, err := run(seed)
		return t, err
	}, func(t *metrics.Table) *metrics.Table { return t })
}

// concat is the section of several computes, in order.
func concat(parts ...compute) compute {
	return func(e *evaluation) ([]output, error) {
		var outs []output
		for _, part := range parts {
			o, err := part(e)
			if err != nil {
				return nil, err
			}
			outs = append(outs, o...)
		}
		return outs, nil
	}
}

// The sections, one per id, in the order run prints them.
var sections = []struct {
	id      string
	compute compute
}{
	{"table1", table(experiments.Table1, func(r *experiments.Table1Result) *metrics.Table { return r.Table })},
	{"fig6", func(*evaluation) ([]output, error) {
		return []output{traceOut(experiments.Fig6(energy.DefaultModel()))}, nil
	}},
	{"fig7", func(*evaluation) ([]output, error) {
		return []output{traceOut(experiments.Fig7(energy.DefaultModel()))}, nil
	}},
	{"table3", table(experiments.Table3, func(r *experiments.Table3Result) *metrics.Table { return r.Table })},
	{"fig8", func(e *evaluation) ([]output, error) {
		c, err := e.energy()
		if err != nil {
			return nil, err
		}
		return figure(c.Fig8())
	}},
	{"fig9", func(e *evaluation) ([]output, error) {
		c, err := e.energy()
		if err != nil {
			return nil, err
		}
		outs, err := figure(c.Fig9())
		return append(outs, headline("headline: UE saving at k=1 = %.1f%% (paper ≈55%%); system saving at k=7 = %.1f%% (paper ≈36%%)",
			c.SavedUEPct[1]*100, c.SavedSystemPct[7]*100)), err
	}},
	{"fig10", func(e *evaluation) ([]output, error) {
		m, err := e.multi()
		if err != nil {
			return nil, err
		}
		return figure(m.Fig10())
	}},
	{"fig11", func(e *evaluation) ([]output, error) {
		m, err := e.multi()
		if err != nil {
			return nil, err
		}
		outs, err := figure(m.Fig11())
		return append(outs, headline("headline: ratio drops from %.1f%% (1 UE, k=1) to %.1f%% (7 UEs, k=7); paper: ≈97%% → ≈5%%",
			m.Ratio[1][0], m.Ratio[7][len(m.K)-1])), err
	}},
	{"table4", table(experiments.Table4, func(r *experiments.Table4Result) *metrics.Table { return r.Table })},
	{"fig12", func(e *evaluation) ([]output, error) { return figure(experiments.DistanceSweep(e.seed, 3)) }},
	{"fig13", func(e *evaluation) ([]output, error) { return figure(experiments.MessageSizeSweep(e.seed, 3)) }},
	{"fig15", func(e *evaluation) ([]output, error) {
		res, err := experiments.Fig15(e.seed, 10)
		if err != nil {
			return nil, err
		}
		outs, err := figure(res.Figure())
		return append(outs, headline("headline: pair saving %.1f%% (paper: about 50%% worst case); trio saving %.1f%% (paper: more than 50%%)",
			res.PairSaving1UE*100, res.TrioSaving2UEs*100)), err
	}},
	{"density", rows(experiments.RelayDensitySweep)},
	{"storm", rows(experiments.StormSweep)},
	{"battery", table(experiments.BatteryShare, func(r *experiments.BatteryShareResult) *metrics.Table { return r.Table })},
	{"extension", table(experiments.PeriodicExtension, func(r *experiments.ExtensionResult) *metrics.Table { return r.Table })},
	{"seeds", table(func(seed int64) (*experiments.SeedRobustness, error) { return experiments.SeedSweep(seed, 5) },
		func(r *experiments.SeedRobustness) *metrics.Table { return r.Table })},
	{"sensitivity", rows(experiments.CalibrationSensitivity)},
	{"delay", rows(experiments.DelayByPolicy)},
	{"incentive", rows(experiments.Incentive)},
	{"ablations", concat(
		rows(experiments.PolicyAblation),
		rows(experiments.TechniqueAblation),
		rows(experiments.PrejudgmentAblation),
		rows(experiments.FeedbackAblation),
		rows(experiments.CapacityAblation),
		rows(experiments.CoverageAblation),
		rows(experiments.ExpiryFactorAblation),
	)},
}

// experimentIDs are the values -only accepts, in the order run prints them.
var experimentIDs = func() []string {
	ids := make([]string, len(sections))
	for i, s := range sections {
		ids[i] = s.id
	}
	return ids
}()

func main() {
	var (
		seed = flag.Int64("seed", experiments.DefaultSeed, "simulation seed")
		csv  = flag.Bool("csv", false, "print every table and figure as CSV, and each trace as its CSV samples, instead of aligned text and summaries; headlines stay text")
		only = flag.String("only", "", "run a single experiment: "+strings.Join(experimentIDs, ", "))
		out  = flag.String("out", "", "also write every table/figure as CSV files into this directory")
	)
	flag.Parse()
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "d2dbench:", err)
			os.Exit(1)
		}
	}
	if err := run(os.Stdout, *seed, *csv, strings.ToLower(*only), *out); err != nil {
		fmt.Fprintln(os.Stderr, "d2dbench:", err)
		os.Exit(1)
	}
}

// run prints the selected sections (every one when only is empty) to w
// and, with outDir set, writes each table of a section to its own CSV
// file there: <id>.csv, or <id>-<n>.csv when the section has several.
func run(w io.Writer, seed int64, csv bool, only, outDir string) error {
	if only != "" && !slices.Contains(experimentIDs, only) {
		return fmt.Errorf("unknown experiment %q (valid: %s)", only, strings.Join(experimentIDs, ", "))
	}
	e := newEvaluation(seed)
	for _, s := range sections {
		if only != "" && only != s.id {
			continue
		}
		outs, err := s.compute(e)
		if err != nil {
			return err
		}
		files := 0
		for _, o := range outs {
			if o.file != "" {
				files++
			}
		}
		n := 0
		for _, o := range outs {
			if csv {
				fmt.Fprintln(w, o.csvText)
			} else {
				fmt.Fprintln(w, o.text)
			}
			if outDir == "" || o.file == "" {
				continue
			}
			n++
			name := s.id
			if files > 1 {
				name = fmt.Sprintf("%s-%d", s.id, n)
			}
			if err := os.WriteFile(filepath.Join(outDir, name+".csv"), []byte(o.file), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
