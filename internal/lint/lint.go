// Package lint implements d2dvet, the project-specific static-analysis
// suite. It enforces the invariants the reproduction's guarantees rest on
// but that the compiler cannot see: simulation-clocked packages must not
// read the wall clock (walltime), every randomness source must be a seeded
// *rand.Rand (rawrand), no blocking network/channel operation may run
// while a mutex is held (lockheld), and network-layer error returns from
// Close/Flush/Write must not be silently dropped (closecheck). The second
// generation guards the parallel-kernel work: map iteration must not feed
// order-sensitive sinks — trace events, trace recordings, report tables,
// digests — without an intervening sort (maporder), goroutines spawned by
// stoppable types need a shutdown edge (goroleak), atomic values live in
// typed atomics, never behind sync/atomic's pointer API, which lets one
// field be accessed both atomically and plainly (atomicmix), and every
// Ticker/Timer needs a reachable Stop while time.After stays out of loops
// (tickerstop).
//
// The driver is stdlib-only: packages are parsed with go/parser and
// checked with go/types; external dependencies resolve through compiled
// export data from `go list -export`, so a full-tree run costs one type
// check per module package.
//
// Findings print as "file:line: [analyzer] message". A finding can be
// suppressed with a comment on the same line or the line above:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself a finding.
package lint

import (
	"cmp"
	"fmt"
	"go/token"
	"path/filepath"
	"slices"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	// Pos locates the offending code.
	Pos token.Position
	// Analyzer names the rule that fired.
	Analyzer string
	// Message explains the violation and the invariant behind it.
	Message string
}

// String renders the canonical "file:line: [analyzer] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Analyzer is one named rule.
type Analyzer struct {
	// Name is the short identifier used in output and //lint:allow.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run reports findings for one package through the pass.
	Run func(*Pass)
}

// Analyzers is the full suite, in output order.
var Analyzers = []*Analyzer{
	Walltime, Rawrand, Lockheld, Closecheck,
	Maporder, Goroleak, Atomicmix, Tickerstop,
}

// Pass is one (analyzer, package) unit of work.
type Pass struct {
	// Analyzer is the running rule.
	Analyzer *Analyzer
	// Pkg is the package under analysis.
	Pkg *Package
	// Module is the module path (locates the project's ordered sinks for
	// maporder).
	Module string
	// Univ is every module package loaded in this run; the call graph
	// indexes it, and interface lookups search its imports.
	Univ []*Package

	graph    *callGraph
	findings *[]Finding
}

// Reportf records one finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run loads the packages matched by patterns and applies every configured
// analyzer, returning the surviving (unsuppressed, deduplicated) findings
// sorted by position. File names are reported relative to the module root.
func (l *Loader) Run(cfg *Config, patterns []string) ([]Finding, error) {
	roots, err := l.LoadPatterns(patterns)
	if err != nil {
		return nil, err
	}
	return l.analyze(cfg, roots), nil
}

// analyze applies the suite to the given packages (already loaded).
func (l *Loader) analyze(cfg *Config, roots []*Package) []Finding {
	var findings []Finding
	univ := l.ModulePackages()
	graph := newCallGraph(univ)
	for _, a := range Analyzers {
		ac := cfg.For(a.Name)
		for _, pkg := range roots {
			if !ac.appliesToPackage(pkg.Path) {
				continue
			}
			a.Run(&Pass{
				Analyzer: a, Pkg: pkg, Module: cfg.Module,
				Univ: univ, graph: graph, findings: &findings,
			})
		}
	}
	ds := collectDirectives(roots)
	findings = ds.applySuppressions(findings)
	if cfg.ReportUnusedAllows {
		findings = append(findings, ds.staleFindings()...)
	}
	findings = dedupe(findings)
	for i := range findings {
		if rel, err := filepath.Rel(l.ModuleDir, findings[i].Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			findings[i].Pos.Filename = rel
		}
	}
	slices.SortFunc(findings, func(a, b Finding) int {
		if c := cmp.Compare(a.Pos.Filename, b.Pos.Filename); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Pos.Line, b.Pos.Line); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Analyzer, b.Analyzer); c != 0 {
			return c
		}
		return cmp.Compare(a.Message, b.Message)
	})
	return findings
}

// dedupe removes exact duplicate findings.
func dedupe(fs []Finding) []Finding {
	seen := make(map[string]bool, len(fs))
	out := fs[:0]
	for _, f := range fs {
		key := f.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, f)
	}
	return out
}
