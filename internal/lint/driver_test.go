package lint

import "testing"

// TestRepositoryIsClean lints the real module with the repository policy
// and requires zero unsuppressed findings — the same gate `make lint` and
// CI enforce. A failure here names the exact file:line to fix (or to
// justify with //lint:allow <analyzer> <reason>).
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check is slow; skipped with -short")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(l.ModulePath)
	// The suppression audit runs here too: a //lint:allow that stopped
	// suppressing anything must be deleted, not left to mask the next
	// finding at its line.
	cfg.ReportUnusedAllows = true
	findings, err := l.Run(cfg, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f.String())
	}
}

// TestAnalyzerRegistry pins the suite roster: names are the //lint:allow
// and CLI vocabulary, so adding or renaming an analyzer must be deliberate.
func TestAnalyzerRegistry(t *testing.T) {
	wantNames := []string{
		"walltime", "rawrand", "lockheld", "closecheck",
		"maporder", "goroleak", "atomicmix", "tickerstop",
	}
	if len(Analyzers) != len(wantNames) {
		t.Fatalf("suite has %d analyzers, want %d", len(Analyzers), len(wantNames))
	}
	for i, a := range Analyzers {
		if a.Name != wantNames[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, wantNames[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc line", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
}
