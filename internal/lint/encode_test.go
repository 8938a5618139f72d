package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func sampleFindings() []Finding {
	return []Finding{
		{
			Pos:      token.Position{Filename: "internal/a/a.go", Line: 12, Column: 3},
			Analyzer: "maporder",
			Message:  "map iteration feeds a digest",
		},
		{
			Pos:      token.Position{Filename: "internal/b/b.go", Line: 7},
			Analyzer: "lint",
			Message:  "stale //lint:allow, 100% dead\nsecond line",
		},
	}
}

// TestEncodeJSON pins the machine-readable form: a non-null array whose
// entries carry file/line/analyzer/message.
func TestEncodeJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, sampleFindings()); err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got) != 2 {
		t.Fatalf("encoded %d findings, want 2", len(got))
	}
	if got[0]["file"] != "internal/a/a.go" || got[0]["line"] != float64(12) || got[0]["analyzer"] != "maporder" {
		t.Errorf("first finding encoded wrong: %v", got[0])
	}

	buf.Reset()
	if err := EncodeJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if s := strings.TrimSpace(buf.String()); s != "[]" {
		t.Errorf("empty run encodes as %q, want []", s)
	}
}

// TestEncodeSARIF pins the SARIF 2.1.0 shape code scanning consumes: one
// run, a rule per analyzer (plus the driver's own), and results whose
// ruleId/locations match the findings.
func TestEncodeSARIF(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSARIF(&buf, sampleFindings()); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q runs %d, want 2.1.0 / 1", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "d2dvet" {
		t.Errorf("driver name %q, want d2dvet", run.Tool.Driver.Name)
	}
	if want := len(Analyzers) + 1; len(run.Tool.Driver.Rules) != want {
		t.Errorf("rule table has %d rules, want %d (every analyzer + lint)", len(run.Tool.Driver.Rules), want)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, res := range run.Results {
		if !ruleIDs[res.RuleID] {
			t.Errorf("result ruleId %q not in the rule table", res.RuleID)
		}
		if res.Level != "error" {
			t.Errorf("result level %q, want error", res.Level)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("%d results, want 2", len(run.Results))
	}
	loc := run.Results[0].Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/a/a.go" || loc.Region.StartLine != 12 {
		t.Errorf("first location = %s:%d, want internal/a/a.go:12", loc.ArtifactLocation.URI, loc.Region.StartLine)
	}
}

// TestEncodeGitHub pins the workflow-command format and its escaping: a
// multi-line message must stay one ::error line.
func TestEncodeGitHub(t *testing.T) {
	var buf bytes.Buffer
	EncodeGitHub(&buf, sampleFindings())
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("emitted %d lines, want 2 (one per finding):\n%s", len(lines), buf.String())
	}
	if want := "::error file=internal/a/a.go,line=12,title=d2dvet/maporder::map iteration feeds a digest"; lines[0] != want {
		t.Errorf("line 1 = %q\nwant     %q", lines[0], want)
	}
	// %, newline and the comma in the message must be escaped; the comma
	// only in property values.
	if !strings.Contains(lines[1], "100%25 dead") || !strings.Contains(lines[1], "%0Asecond line") {
		t.Errorf("message escaping broken: %q", lines[1])
	}
	if !strings.HasPrefix(lines[1], "::error file=internal/b/b.go,line=7,title=d2dvet/lint::") {
		t.Errorf("line 2 properties wrong: %q", lines[1])
	}
}

// TestUnusedAllowAudit drives the stale-suppression audit through a
// testdata package holding one working directive (covers a real rawrand
// finding) and one stale directive.
func TestUnusedAllowAudit(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "staleallow"), "golden.test/staleallow")
	if err != nil {
		t.Fatal(err)
	}
	var findings []Finding
	Rawrand.Run(testPass(Rawrand, pkg, &findings))
	ds := collectDirectives([]*Package{pkg})
	findings = ds.applySuppressions(findings)
	if len(findings) != 0 {
		t.Fatalf("want every rawrand finding suppressed, got %v", findings)
	}
	stale := ds.staleFindings()
	if len(stale) != 1 {
		t.Fatalf("want exactly 1 stale directive, got %v", stale)
	}
	f := stale[0]
	if f.Analyzer != "lint" || !strings.Contains(f.Message, "stale //lint:allow walltime") {
		t.Errorf("stale finding wrong: %s", f)
	}
	if !strings.Contains(f.Message, "sim clock only, honest") {
		t.Errorf("stale finding should quote the directive's reason: %s", f)
	}
}
