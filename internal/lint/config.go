package lint

import (
	"path/filepath"
	"strings"
)

// AnalyzerConfig scopes one analyzer.
type AnalyzerConfig struct {
	// Packages restricts the analyzer to import paths matching one of
	// these patterns (exact path, or a "prefix/..." wildcard). Empty means
	// every package.
	Packages []string
	// AllowFiles suppresses every finding in files whose base name
	// matches one of these globs.
	AllowFiles []string
	// ExtraBlocking (lockheld only) names additional functions treated as
	// blocking, as "import/path.Func" or "import/path.Type.Method".
	ExtraBlocking []string
	// ExtraOrdered (maporder only) names additional functions treated as
	// order-sensitive sinks, in the same "import/path.Func" or
	// "import/path.Type.Method" form.
	ExtraOrdered []string
}

// appliesToPackage reports whether the analyzer covers the import path.
func (c AnalyzerConfig) appliesToPackage(path string) bool {
	if len(c.Packages) == 0 {
		return true
	}
	for _, pat := range c.Packages {
		if matchPattern(pat, path) {
			return true
		}
	}
	return false
}

// matchPattern matches an import path against an exact pattern or a
// "prefix/..." wildcard.
func matchPattern(pat, path string) bool {
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		return path == rest || strings.HasPrefix(path, rest+"/")
	}
	return pat == path
}

// allowsFile reports whether findings in the file (base name) are
// allowlisted away.
func (c AnalyzerConfig) allowsFile(base string) bool {
	for _, glob := range c.AllowFiles {
		if ok, err := filepath.Match(glob, base); err == nil && ok {
			return true
		}
	}
	return false
}

// Config is the suite configuration: the module path plus one
// AnalyzerConfig per analyzer name.
type Config struct {
	// Module is the module path (used to locate internal/trace and to
	// build default scopes).
	Module string
	// ByAnalyzer maps analyzer name → configuration. A missing entry
	// means "all packages, no allowances".
	ByAnalyzer map[string]AnalyzerConfig
	// ReportUnusedAllows audits the suppressions themselves: every
	// well-formed //lint:allow that suppressed nothing in the run becomes
	// a finding (d2dvet -unused-allows; CI runs with this on).
	ReportUnusedAllows bool
}

// For returns the configuration for an analyzer name.
func (c *Config) For(name string) AnalyzerConfig {
	if c.ByAnalyzer == nil {
		return AnalyzerConfig{}
	}
	return c.ByAnalyzer[name]
}

// DefaultConfig is the repository policy.
//
//   - walltime covers every simulation-clocked package: the deterministic
//     kernel and everything driven by it. The real-time stack (relaynet,
//     loadgen, faultnet), the wire protocol and the CLIs legitimately use
//     wall time and are out of scope. internal/telemetry is in scope even
//     though real-time code feeds it: the registry must stay clock-free so
//     sim-clocked packages can record into it from injected instants.
//   - rawrand, lockheld, closecheck and tracekey cover the whole module.
//   - lockheld additionally treats the framed-connection entry points as
//     blocking: the session slot's Connect/Send/SendN/Close and the
//     uplink's Send/Close dial, write and wait on the network (every
//     production client goes through them), so calling any of them with a
//     mutex held stalls every other goroutine contending for it. The
//     cluster control plane's HTTP methods (config refresh, drain handoff,
//     membership ops) and the loadgen metric scrapers get the same
//     treatment: holding a lock across one of them stalls every routing
//     party contending for that lock through a reshard.
func DefaultConfig(module string) *Config {
	ip := func(s string) string { return module + "/" + s }
	simPackages := []string{
		module, // root facade: builds and runs simulations
		ip("internal/core"),
		ip("internal/sched"),
		ip("internal/scenario"),
		ip("internal/matching"),
		ip("internal/energy"),
		ip("internal/simtime"),
		ip("internal/d2d"),
		ip("internal/device"),
		ip("internal/presence"),
		ip("internal/rrc"),
		ip("internal/cellular"),
		ip("internal/radio"),
		ip("internal/geo"),
		ip("internal/hbmsg"),
		ip("internal/metrics"),
		ip("internal/experiments"),
		ip("internal/telemetry"),
		// rec is clock-free by design: every instant in a trace is
		// caller-supplied, so replays stay deterministic.
		ip("internal/rec"),
	}
	return &Config{
		Module: module,
		ByAnalyzer: map[string]AnalyzerConfig{
			"walltime": {Packages: simPackages},
			"lockheld": {ExtraBlocking: []string{
				ip("internal/session") + ".Slot.Connect",
				ip("internal/session") + ".Slot.Send",
				ip("internal/session") + ".Slot.SendN",
				ip("internal/session") + ".Slot.Close",
				ip("internal/session") + ".Uplink.Send",
				ip("internal/session") + ".Uplink.Close",
				ip("internal/session") + ".Driver.Stop",
				ip("internal/cluster") + ".Client.Refresh",
				ip("internal/cluster") + ".Router.Drain",
				ip("internal/cluster") + ".Router.Evict",
				ip("internal/cluster") + ".Router.Join",
				ip("internal/loadgen") + ".ScrapeDump",
				ip("internal/loadgen") + ".ScrapeDumpURL",
			}},
		},
	}
}
