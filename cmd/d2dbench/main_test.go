package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
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
	// A table prints as CSV too, not as aligned text.
	var b bytes.Buffer
	if err := run(&b, experiments.DefaultSeed, true, "table1", ""); err != nil {
		t.Fatalf("run csv: %v", err)
	}
	if out := b.String(); !strings.HasPrefix(out, "App,Paper,Measured,AbsErr\n") || strings.Contains(out, "  ") {
		t.Errorf("-csv printed Table I as\n%s\nwant its CSV", out)
	}
}

func TestRunWritesCSVFiles(t *testing.T) {
	// Every section saves its tables: one file for one table, <id>-<n>.csv
	// for each of several; a headline is printed, not saved.
	for _, tc := range []struct {
		only  string
		files []string
	}{
		{"fig12", []string{"fig12.csv"}},
		{"fig9", []string{"fig9.csv"}},
		{"battery", []string{"battery.csv"}},
		{"ablations", []string{"ablations-1.csv", "ablations-2.csv", "ablations-3.csv", "ablations-4.csv",
			"ablations-5.csv", "ablations-6.csv", "ablations-7.csv"}},
	} {
		dir := t.TempDir()
		if err := run(io.Discard, experiments.DefaultSeed, false, tc.only, dir); err != nil {
			t.Fatalf("run(%s): %v", tc.only, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(tc.files) {
			t.Fatalf("run(%s) wrote %d files, want %q", tc.only, len(entries), tc.files)
		}
		for _, name := range tc.files {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("read csv: %v", err)
			}
			if !bytes.Contains(data, []byte(",")) {
				t.Fatalf("%s is not CSV: %q", name, data)
			}
		}
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

// csvGoldenPath is the whole run's output under -csv: the current traces,
// figures as CSV and the tables as text.
const csvGoldenPath = "testdata/paper.csv.golden"

// TestCSVGolden pins the whole run's -csv output byte for byte, as
// TestPaperGolden pins the text run. D2D_REGEN_GOLDEN=1 rewrites it.
func TestCSVGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, experiments.DefaultSeed, true, "", ""); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("D2D_REGEN_GOLDEN") != "" {
		if err := os.WriteFile(csvGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(csvGoldenPath)
	if err != nil {
		t.Fatalf("golden unreadable (regenerate with D2D_REGEN_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d differs:\n got %q\nwant %q", csvGoldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), csvGoldenPath, len(wl))
	}
}

// TestOutFileNames pins the names of the CSV files a whole run writes
// with -out.
func TestOutFileNames(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, experiments.DefaultSeed, false, "", dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	want := []string{
		"ablations-1.csv", "ablations-2.csv", "ablations-3.csv", "ablations-4.csv", "ablations-5.csv",
		"ablations-6.csv", "ablations-7.csv", "battery.csv", "delay.csv", "density.csv", "extension.csv",
		"fig10.csv", "fig11.csv", "fig12.csv", "fig13.csv", "fig15.csv", "fig6.csv", "fig7.csv",
		"fig8.csv", "fig9.csv", "incentive.csv", "seeds.csv", "sensitivity.csv", "storm.csv",
		"table1.csv", "table3.csv", "table4.csv",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("-out wrote %q, want %q", got, want)
	}
}
