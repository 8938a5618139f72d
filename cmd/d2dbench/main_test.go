package main

import (
	"bytes"
	"io"
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
			err := run(io.Discard, experiments.DefaultSeed, false, tc.only, "")
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
	if err := run(io.Discard, experiments.DefaultSeed, true, "fig6", ""); err != nil {
		t.Fatalf("run csv: %v", err)
	}
}

func TestRunWritesCSVFiles(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, experiments.DefaultSeed, false, "fig12", dir); err != nil {
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

// goldenPath is the full text output of d2dbench at the default seed: every
// table and figure of the paper's evaluation, the extension studies and the
// ablations. EXPERIMENTS.md cites it instead of restating it.
const goldenPath = "testdata/paper.golden"

// TestPaperGolden regenerates the whole evaluation in-process and diffs it
// against the committed output, so a change that moves any of the paper's
// numbers fails here and has to show the diff. D2D_REGEN_GOLDEN=1 rewrites
// the file instead; commit it with the change that explains the move.
func TestPaperGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, experiments.DefaultSeed, false, "", ""); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("D2D_REGEN_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, got.Len())
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden unreadable (regenerate with D2D_REGEN_GOLDEN=1): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs:\n got %q\nwant %q", goldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d", len(gl), goldenPath, len(wl))
}
