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

// TestRunSingleExperiments runs every -only id, in text and under -csv.
// Each id prints its own slice of the whole run, and the ids in list order
// print the whole run. An unknown id must fail and name the valid ones
// rather than print nothing.
func TestRunSingleExperiments(t *testing.T) {
	output := func(t *testing.T, csv bool, only string) string {
		t.Helper()
		var b bytes.Buffer
		if err := run(&b, experiments.DefaultSeed, csv, only, ""); err != nil {
			t.Fatalf("run(%q, csv=%v): %v", only, csv, err)
		}
		return b.String()
	}
	modes := []bool{false, true}
	var rest [2]string // what the ids have yet to print of the whole run, in text and under -csv
	for m, csv := range modes {
		rest[m] = output(t, csv, "")
	}
	for _, id := range onlyIDs() {
		t.Run(id, func(t *testing.T) {
			for m, csv := range modes {
				got := output(t, csv, id)
				if got == "" || !strings.HasPrefix(rest[m], got) {
					t.Fatalf("-only %s (csv=%v) is not the next %d bytes of the whole run:\n%s", id, csv, len(got), got)
				}
				rest[m] = rest[m][len(got):]
			}
		})
	}
	for m, csv := range modes {
		if rest[m] != "" {
			t.Errorf("the ids (csv=%v) printed all of the whole run but its last %d bytes", csv, len(rest[m]))
		}
	}
	t.Run("fgi9", func(t *testing.T) {
		err := run(io.Discard, experiments.DefaultSeed, false, "fgi9", "")
		if want := "valid: table1, fig6"; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("run(fgi9) = %v, want an error containing %q", err, want)
		}
	})
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

// TestPaperGolden regenerates the whole evaluation in-process, as text
// and under -csv, and diffs each against its committed output, so a change
// that moves any of the paper's numbers fails here and has to show the
// diff. D2D_REGEN_GOLDEN=1 rewrites the files instead; commit them with the
// change that explains the move. paper.golden is the text run, which
// EXPERIMENTS.md cites instead of restating it; paper.csv.golden is the
// -csv run: the current traces, the figures and the tables as CSV.
func TestPaperGolden(t *testing.T) {
	for _, tc := range []struct {
		name, path string
		csv        bool
	}{
		{"text", "testdata/paper.golden", false},
		{"csv", "testdata/paper.csv.golden", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := run(&got, experiments.DefaultSeed, tc.csv, "", ""); err != nil {
				t.Fatal(err)
			}
			if os.Getenv("D2D_REGEN_GOLDEN") != "" {
				if err := os.WriteFile(tc.path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", tc.path, got.Len())
				return
			}
			want, err := os.ReadFile(tc.path)
			if err != nil {
				t.Fatalf("golden unreadable (regenerate with D2D_REGEN_GOLDEN=1): %v", err)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s line %d differs:\n got %q\nwant %q", tc.path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("output has %d lines, %s has %d", len(gl), tc.path, len(wl))
		})
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
