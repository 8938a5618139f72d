package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"d2dhb/internal/experiments"
)

func TestRunSingleExperiments(t *testing.T) {
	// Exercise every -only branch that runs quickly; the heavyweight
	// sweeps are covered by the experiments package tests. An unknown id
	// must fail and name the valid ones rather than print nothing.
	for _, tc := range []struct{ only, wantErr string }{
		{"table1", ""}, {"fig6", ""}, {"fig7", ""}, {"table3", ""}, {"fig13", ""}, {"battery", ""},
		{"fgi9", "valid: table1, fig6"},
	} {
		tc := tc
		t.Run(tc.only, func(t *testing.T) {
			err := run(experiments.DefaultSeed, false, tc.only, "")
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("run(%s): %v", tc.only, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("run(%s) = %v, want an error containing %q", tc.only, err, tc.wantErr)
			}
		})
	}
}

func TestRunCSVMode(t *testing.T) {
	if err := run(experiments.DefaultSeed, true, "fig6", ""); err != nil {
		t.Fatalf("run csv: %v", err)
	}
}

func TestRunWritesCSVFiles(t *testing.T) {
	dir := t.TempDir()
	if err := run(experiments.DefaultSeed, false, "fig12", dir); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig12.csv"))
	if err != nil {
		t.Fatalf("read csv: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("empty csv written")
	}
}
