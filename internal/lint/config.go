package lint

import "slices"

// AnalyzerConfig scopes one analyzer.
type AnalyzerConfig struct {
	// Packages restricts the analyzer to these import paths. Empty means
	// every package.
	Packages []string
}

// appliesToPackage reports whether the analyzer covers the import path.
func (c AnalyzerConfig) appliesToPackage(path string) bool {
	return len(c.Packages) == 0 || slices.Contains(c.Packages, path)
}

// Config is the suite configuration: the module path plus one
// AnalyzerConfig per analyzer name.
type Config struct {
	// Module is the module path (used to locate the project's ordered
	// sinks and to build default scopes).
	Module string
	// ByAnalyzer maps analyzer name → configuration. A missing entry
	// means "all packages".
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
//   - every other analyzer covers the whole module.
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
		// inflight is too: the simulated UE hands it virtual instants, the
		// live clients wall time.
		ip("internal/inflight"),
	}
	return &Config{
		Module: module,
		ByAnalyzer: map[string]AnalyzerConfig{
			"walltime": {Packages: simPackages},
		},
	}
}
