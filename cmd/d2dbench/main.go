// Command d2dbench regenerates every table and figure of the paper's
// evaluation section and prints paper-vs-measured comparisons.
//
// Usage:
//
//	d2dbench [-seed N] [-csv] [-out dir] [-only id]
//
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

	"d2dhb/internal/energy"
	"d2dhb/internal/experiments"
	"d2dhb/internal/metrics"
)

// experimentIDs are the values -only accepts, in the order run prints them.
var experimentIDs = []string{
	"table1", "fig6", "fig7", "table3", "fig8", "fig9", "fig10", "fig11", "table4", "fig12", "fig13", "fig15",
	"density", "storm", "battery", "extension", "seeds", "sensitivity", "delay", "incentive", "ablations",
}

func main() {
	var (
		seed = flag.Int64("seed", experiments.DefaultSeed, "simulation seed")
		csv  = flag.Bool("csv", false, "emit current traces as CSV instead of summaries")
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

// run prints the selected experiments (every one when only is empty) to w
// and, with outDir set, writes their CSV files there.
func run(w io.Writer, seed int64, csv bool, only, outDir string) error {
	if only != "" && !slices.Contains(experimentIDs, only) {
		return fmt.Errorf("unknown experiment %q (valid: %s)", only, strings.Join(experimentIDs, ", "))
	}
	want := func(name string) bool { return only == "" || only == name }
	model := energy.DefaultModel()
	save := func(name, content string) error {
		if outDir == "" {
			return nil
		}
		return os.WriteFile(filepath.Join(outDir, name+".csv"), []byte(content), 0o644)
	}

	if want("table1") {
		res, err := experiments.Table1(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Table)
		if err := save("table1", res.Table.CSV()); err != nil {
			return err
		}
	}
	if want("fig6") {
		res := experiments.Fig6(model)
		if csv {
			fmt.Fprintln(w, res.Trace.CSV())
		} else {
			fmt.Fprintln(w, res.Summary())
		}
		if err := save("fig6", res.Trace.CSV()); err != nil {
			return err
		}
	}
	if want("fig7") {
		res := experiments.Fig7(model)
		if csv {
			fmt.Fprintln(w, res.Trace.CSV())
		} else {
			fmt.Fprintln(w, res.Summary())
		}
		if err := save("fig7", res.Trace.CSV()); err != nil {
			return err
		}
	}
	if want("table3") {
		res, err := experiments.Table3(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Table)
		if err := save("table3", res.Table.CSV()); err != nil {
			return err
		}
	}
	if want("fig8") || want("fig9") {
		curves, err := experiments.EnergyVsTransmissions(seed, 8)
		if err != nil {
			return err
		}
		if want("fig8") {
			f, err := curves.Fig8()
			if err != nil {
				return err
			}
			printFigure(w, f, csv)
			if err := save("fig8", f.Table().CSV()); err != nil {
				return err
			}
		}
		if want("fig9") {
			f, err := curves.Fig9()
			if err != nil {
				return err
			}
			printFigure(w, f, csv)
			if err := save("fig9", f.Table().CSV()); err != nil {
				return err
			}
			fmt.Fprintf(w, "headline: UE saving at k=1 = %.1f%% (paper ≈55%%); system saving at k=7 = %.1f%% (paper ≈36%%)\n\n",
				curves.SavedUEPct[1]*100, curves.SavedSystemPct[7]*100)
		}
	}
	if want("fig10") || want("fig11") {
		multi, err := experiments.RelayMultiUE(seed, 7)
		if err != nil {
			return err
		}
		if want("fig10") {
			f, err := multi.Fig10()
			if err != nil {
				return err
			}
			printFigure(w, f, csv)
			if err := save("fig10", f.Table().CSV()); err != nil {
				return err
			}
		}
		if want("fig11") {
			f, err := multi.Fig11()
			if err != nil {
				return err
			}
			printFigure(w, f, csv)
			if err := save("fig11", f.Table().CSV()); err != nil {
				return err
			}
			fmt.Fprintf(w, "headline: ratio drops from %.1f%% (1 UE, k=1) to %.1f%% (7 UEs, k=7); paper: ≈97%% → ≈5%%\n\n",
				multi.Ratio[1][0], multi.Ratio[7][len(multi.K)-1])
		}
	}
	if want("table4") {
		res, err := experiments.Table4(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Table)
		if err := save("table4", res.Table.CSV()); err != nil {
			return err
		}
	}
	if want("fig12") {
		f, err := experiments.DistanceSweep(seed, 3)
		if err != nil {
			return err
		}
		printFigure(w, f, csv)
		if err := save("fig12", f.Table().CSV()); err != nil {
			return err
		}
	}
	if want("fig13") {
		f, err := experiments.MessageSizeSweep(seed, 3)
		if err != nil {
			return err
		}
		printFigure(w, f, csv)
		if err := save("fig13", f.Table().CSV()); err != nil {
			return err
		}
	}
	if want("fig15") {
		res, err := experiments.Fig15(seed, 10)
		if err != nil {
			return err
		}
		f, err := res.Figure()
		if err != nil {
			return err
		}
		printFigure(w, f, csv)
		if err := save("fig15", f.Table().CSV()); err != nil {
			return err
		}
		fmt.Fprintf(w, "headline: pair saving %.1f%% (paper: about 50%% worst case); trio saving %.1f%% (paper: more than 50%%)\n\n",
			res.PairSaving1UE*100, res.TrioSaving2UEs*100)
	}
	if want("density") {
		_, t, err := experiments.RelayDensitySweep(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, t)
	}
	if want("storm") {
		_, t, err := experiments.StormSweep(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, t)
	}
	if want("battery") {
		res, err := experiments.BatteryShare(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Table)
	}
	if want("extension") {
		res, err := experiments.PeriodicExtension(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Table)
	}
	if want("seeds") {
		res, err := experiments.SeedSweep(seed, 5)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Table)
	}
	if want("sensitivity") {
		_, t, err := experiments.CalibrationSensitivity(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, t)
	}
	if want("delay") {
		_, t, err := experiments.DelayByPolicy(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, t)
	}
	if want("incentive") {
		_, t, err := experiments.Incentive(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, t)
	}
	if want("ablations") {
		type ablation func(int64) (*metrics.Table, error)
		ablations := []ablation{
			func(s int64) (*metrics.Table, error) { _, t, err := experiments.PolicyAblation(s); return t, err },
			func(s int64) (*metrics.Table, error) { _, t, err := experiments.TechniqueAblation(s); return t, err },
			func(s int64) (*metrics.Table, error) { _, t, err := experiments.PrejudgmentAblation(s); return t, err },
			func(s int64) (*metrics.Table, error) { _, t, err := experiments.FeedbackAblation(s); return t, err },
			func(s int64) (*metrics.Table, error) { _, t, err := experiments.CapacityAblation(s); return t, err },
			func(s int64) (*metrics.Table, error) { _, t, err := experiments.CoverageAblation(s); return t, err },
			func(s int64) (*metrics.Table, error) { _, t, err := experiments.ExpiryFactorAblation(s); return t, err },
		}
		for _, ab := range ablations {
			t, err := ab(seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, t)
		}
	}
	return nil
}

func printFigure(w io.Writer, f *metrics.Figure, csv bool) {
	if csv {
		fmt.Fprintln(w, f.Table().CSV())
		return
	}
	fmt.Fprintln(w, f)
}
