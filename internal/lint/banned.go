package lint

import (
	"go/ast"
	"go/types"
	"slices"
)

// bannedCalls states one rule of the form "no package-level function N of
// package P": every reference to a function of one of paths whose name
// banned reports is a finding at the reference. Methods are never banned —
// their receiver carries what the rule is about (a seed, an instant, a
// typed atomic).
type bannedCalls struct {
	name, doc string
	paths     []string
	banned    func(name string) bool
	// message formats the finding. Its arguments are the function's
	// package path, the function's name and the linted package's path; a
	// message picks the ones it needs by index (%[2]s).
	message string
}

func (b bannedCalls) analyzer() *Analyzer {
	return &Analyzer{Name: b.name, Doc: b.doc, Run: b.run}
}

func (b bannedCalls) run(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || !slices.Contains(b.paths, fn.Pkg().Path()) {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil || !b.banned(fn.Name()) {
				return true
			}
			p.Reportf(sel.Pos(), b.message, fn.Pkg().Path(), fn.Name(), p.Pkg.Path)
			return true
		})
	}
}

// Walltime forbids wall-clock timing in simulation-clocked packages.
//
// The deterministic kernel (internal/simtime) owns time in the simulation
// layer: every delay, timer and timestamp must come from the injected
// virtual clock. A single time.Now() or time.Sleep() in those packages
// silently couples a run to the host scheduler — results stop being
// bit-reproducible, resume-from-seed breaks, and the chaos suite's
// determinism guarantee is void. The compiler cannot catch this; this
// analyzer does. Pure arithmetic (time.Duration, ParseDuration, Unix) and
// methods like (time.Time).After stay allowed.
var Walltime = bannedCalls{
	name:  "walltime",
	doc:   "no time.Now/Sleep/After/NewTimer/NewTicker in simulation-clocked packages; use the injected simtime clock",
	paths: []string{"time"},
	banned: func(name string) bool {
		switch name {
		case "Now", "Sleep", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker", "Since", "Until":
			return true
		}
		return false
	},
	message: "time.%[2]s reads the wall clock in simulation-clocked package %[3]s; route timing through the injected simtime clock so runs stay deterministic",
}.analyzer()

// Rawrand forbids the unseeded global math/rand generators.
//
// Fault schedules (internal/faultnet), load arrival jitter and relay
// backoff all replay bit-for-bit because every random draw flows from an
// explicitly seeded *rand.Rand. One call to a package-level math/rand
// function reintroduces shared global state: runs stop reproducing,
// seeded chaos timelines diverge, and two components can perturb each
// other's streams. Constructors (rand.New, rand.NewSource, ...) are the
// sanctioned way in and stay allowed.
var Rawrand = bannedCalls{
	name:  "rawrand",
	doc:   "no unseeded global math/rand functions; every randomness source must be an explicitly seeded *rand.Rand",
	paths: []string{"math/rand", "math/rand/v2"},
	banned: func(name string) bool {
		switch name {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return false
		}
		return true
	},
	message: "%[1]s.%[2]s draws from the unseeded global generator; use a seeded *rand.Rand so fault and load schedules replay bit-for-bit",
}.analyzer()

// Atomicmix forbids the package-level sync/atomic functions.
//
// A field updated through atomic.AddUint64(&s.n, 1) but read as s.n
// elsewhere is a data race the moment two goroutines touch it, and the
// race detector only catches the schedules it happens to see. Every such
// mix starts with a call to the pointer API; the typed atomics
// (atomic.Uint64 et al.) make the mix impossible by construction and are
// the project standard, so their methods are the only way in.
var Atomicmix = bannedCalls{
	name:    "atomicmix",
	doc:     "no package-level sync/atomic functions; a value touched atomically lives in a typed atomic, so no access can mix atomic and plain",
	paths:   []string{"sync/atomic"},
	banned:  func(string) bool { return true },
	message: "atomic.%[2]s is the pointer API of sync/atomic, which lets the same field be read or written plainly elsewhere — a data race; hold the value in a typed atomic (atomic.Uint64 et al.) instead",
}.analyzer()
