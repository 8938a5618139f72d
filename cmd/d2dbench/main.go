// Command d2dbench regenerates every table and figure of the paper's
// evaluation section and prints paper-vs-measured comparisons. It walks
// experiments.Evaluation, the one list of the evaluation's runs that
// TestEvaluationGolden pins and BenchmarkEvaluation times, and prints what
// each entry's result prints.
//
// Usage:
//
//	d2dbench [-seed N] [-csv] [-out dir] [-only id]
//
// -csv prints every table and figure as CSV, and each trace as its CSV
// samples instead of its summary; a headline (one sentence, no table)
// stays text. -out also saves every table and figure as a CSV file.
// -only prints one id and runs only the entries that print under it; -h
// lists the ids, which are the list's. The repo's performance benchmark is
// bench/run.sh, not this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"d2dhb/internal/experiments"
)

// onlyIDs are the values -only accepts: the ids of experiments.Evaluation,
// in the order run prints them. The entries of one id are adjacent.
func onlyIDs() []string {
	var ids []string
	for _, e := range experiments.Evaluation {
		ids = append(ids, e.IDs...)
	}
	return slices.Compact(ids)
}

func main() {
	var (
		seed = flag.Int64("seed", experiments.DefaultSeed, "simulation seed")
		csv  = flag.Bool("csv", false, "print every table and figure as CSV, and each trace as its CSV samples, instead of aligned text and summaries; headlines stay text")
		only = flag.String("only", "", "print only this experiment: "+strings.Join(onlyIDs(), ", "))
		out  = flag.String("out", "", "also write every table/figure as CSV files into this directory")
	)
	flag.Parse()
	if err := run(os.Stdout, *seed, *csv, strings.ToLower(*only), *out); err != nil {
		fmt.Fprintln(os.Stderr, "d2dbench:", err)
		os.Exit(1)
	}
}

// run prints what the entries of experiments.Evaluation print under the
// selected id (every id when only is empty) to w and, with outDir set,
// writes each CSV block of an id to its own file there: <id>.csv, or
// <id>-<n>.csv when the id has several.
func run(w io.Writer, seed int64, csv bool, only, outDir string) error {
	ids := onlyIDs()
	if only != "" && !slices.Contains(ids, only) {
		return fmt.Errorf("unknown experiment %q (valid: %s)", only, strings.Join(ids, ", "))
	}
	saved := make(map[string][]string) // the CSV blocks of each id, in order
	for _, e := range experiments.Evaluation {
		if only != "" && !slices.Contains(e.IDs, only) {
			continue
		}
		res, err := e.Run(seed)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		blocks, err := res.Blocks()
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		for i, id := range e.IDs {
			if only != "" && id != only {
				continue
			}
			for _, b := range blocks[i] {
				text := b.Text
				if csv && b.CSV != "" {
					text = b.CSV
				}
				fmt.Fprintln(w, text)
				if b.CSV != "" {
					saved[id] = append(saved[id], b.CSV)
				}
			}
		}
	}
	if outDir == "" {
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, id := range ids {
		for n, c := range saved[id] {
			name := id
			if len(saved[id]) > 1 {
				name = fmt.Sprintf("%s-%d", id, n+1)
			}
			if err := os.WriteFile(filepath.Join(outDir, name+".csv"), []byte(c), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
