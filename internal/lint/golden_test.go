package lint

import (
	"path/filepath"
	"regexp"
	"testing"
)

// want is one "// want `regex`" expectation parsed from a testdata file.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("// want `([^`]+)`")

func parseWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regex %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("testdata package declares no // want expectations")
	}
	return wants
}

// TestGolden runs each analyzer over its testdata package and checks the
// surviving findings against the // want expectations: every expectation
// must fire, every finding must be expected, and every //lint:allow in the
// package must actually suppress (suppressed sites carry no want).
func TestGolden(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Analyzers {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", a.Name)
			pkg, err := l.LoadDir(dir, "golden.test/"+a.Name)
			if err != nil {
				t.Fatal(err)
			}
			var findings []Finding
			a.Run(&Pass{
				Analyzer: a,
				Pkg:      pkg,
				Cfg:      AnalyzerConfig{},
				Module:   "d2dhb",
				Univ:     []*Package{pkg},
				shared:   &shared{},
				findings: &findings,
			})
			findings = applySuppressions(findings, []*Package{pkg})

			wants := parseWants(t, pkg)
			for _, f := range findings {
				if f.Analyzer != a.Name {
					t.Errorf("finding from foreign analyzer: %s", f)
					continue
				}
				covered := false
				for _, w := range wants {
					if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
						w.matched = true
						covered = true
					}
				}
				if !covered {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: expected finding matching %q never fired", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestMalformedAllowDirective checks that a //lint:allow without a reason
// is itself reported instead of silently suppressing.
func TestMalformedAllowDirective(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "badallow"), "golden.test/badallow")
	if err != nil {
		t.Fatal(err)
	}
	var findings []Finding
	Rawrand.Run(&Pass{
		Analyzer: Rawrand, Pkg: pkg, Cfg: AnalyzerConfig{}, Module: "d2dhb",
		Univ: []*Package{pkg}, shared: &shared{}, findings: &findings,
	})
	findings = applySuppressions(findings, []*Package{pkg})

	var malformed, rawrand int
	for _, f := range findings {
		switch f.Analyzer {
		case "lint":
			malformed++
		case "rawrand":
			rawrand++
		}
	}
	if malformed != 1 {
		t.Errorf("want exactly 1 malformed-directive finding, got %d: %v", malformed, findings)
	}
	// The reason-less directive must not suppress the underlying finding.
	if rawrand != 1 {
		t.Errorf("want the rawrand finding to survive the malformed directive, got %d: %v", rawrand, findings)
	}
}

// TestFindingString pins the canonical output format the CLI prints and CI
// greps.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "walltime", Message: "no"}
	f.Pos.Filename = "a/b.go"
	f.Pos.Line = 7
	if got, wantStr := f.String(), "a/b.go:7: [walltime] no"; got != wantStr {
		t.Errorf("String() = %q, want %q", got, wantStr)
	}
}

// TestConfigScoping pins package scoping: exact import paths, and every
// package when none are listed.
func TestConfigScoping(t *testing.T) {
	c := AnalyzerConfig{Packages: []string{"m", "m/internal/core"}}
	cases := []struct {
		path string
		in   bool
	}{
		{"m", true},
		{"m/internal/core", true},
		{"m/internal/core/sub", false},
		{"other", false},
	}
	for _, tc := range cases {
		if got := c.appliesToPackage(tc.path); got != tc.in {
			t.Errorf("appliesToPackage(%q) = %v, want %v", tc.path, got, tc.in)
		}
	}
	if !(AnalyzerConfig{}).appliesToPackage("other") {
		t.Error("an unscoped analyzer skips a package")
	}
}
