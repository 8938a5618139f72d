// Package d2dhb is a Go reproduction of "Reducing Cellular Signaling
// Traffic for Heartbeat Messages via Energy-Efficient D2D Forwarding"
// (ICDCS 2017): a framework in which volunteer smartphones (relays) collect
// the periodic keep-alive messages of nearby phones (UEs) over
// device-to-device links and transmit them to the base station in a single
// aggregated cellular connection, scheduled by a Nagle-derived algorithm
// that respects per-message expiration times.
//
// The package exposes two ways to use the framework:
//
//   - A deterministic discrete-event simulation of the full system —
//     radio propagation, Wi-Fi Direct-style discovery and group formation,
//     RRC signaling, and a power-monitor-calibrated energy model — via
//     NewSimulation and the scenario builders.
//   - A real networked implementation (presence server, relay agent, UE
//     client speaking a binary protocol over TCP) via NewServer,
//     NewRelayAgent and NewUEClient.
//
// Command d2dbench prints every table and figure of the paper's
// evaluation, and BenchmarkEvaluation in internal/experiments times each
// one; see EXPERIMENTS.md.
package d2dhb

import (
	"d2dhb/internal/core"
	"d2dhb/internal/energy"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/matching"
	"d2dhb/internal/radio"
	"d2dhb/internal/relaynet"
	"d2dhb/internal/rrc"
	"d2dhb/internal/sched"
)

// Simulation types, re-exported from the framework core.
type (
	// Options parameterize a simulation (seed, horizon, radio technique,
	// energy model, scheduling policy, ...).
	Options = core.Options
	// Simulation is a configured scenario; add devices, then Run.
	Simulation = core.Simulation
	// Report is the outcome of a run: per-device energy ledgers, RRC
	// signaling counters and delivery statistics.
	Report = core.Report
	// DeviceReport is one device's share of a Report.
	DeviceReport = core.DeviceReport
	// RelaySpec describes a relay to add to a simulation.
	RelaySpec = core.RelaySpec
	// UESpec describes a UE to add to a simulation.
	UESpec = core.UESpec
	// AppProfile describes an IM app's heartbeat traffic (period, size,
	// expiry, Table I message mix).
	AppProfile = hbmsg.AppProfile
	// DeviceID identifies a device.
	DeviceID = hbmsg.DeviceID
	// EnergyModel holds the paper-calibrated charge constants.
	EnergyModel = energy.Model
	// RRCConfig holds the signaling model parameters.
	RRCConfig = rrc.Config
	// MatchConfig holds relay-selection parameters (prejudgment).
	MatchConfig = matching.Config
	// PolicyKind selects the relay scheduling policy.
	PolicyKind = sched.Kind
	// Technique selects the D2D radio technology.
	Technique = radio.Technique
)

// Scheduling policies.
const (
	// PolicyNagle is Algorithm 1, the paper's scheduler.
	PolicyNagle = sched.KindNagle
	// PolicyImmediate sends every collected heartbeat at once.
	PolicyImmediate = sched.KindImmediate
	// PolicyFixedDelay batches for a fixed delay, ignoring expiries.
	PolicyFixedDelay = sched.KindFixedDelay
	// PolicyPeriodAligned always waits for the relay's period end.
	PolicyPeriodAligned = sched.KindPeriodAligned
)

// D2D techniques.
const (
	// WiFiDirect is the prototype's D2D technology (Section IV-A).
	WiFiDirect = radio.WiFiDirect
	// Bluetooth is the shorter-range alternative kept for ablations.
	Bluetooth = radio.Bluetooth
	// LTEDirect models the ~500 m next-generation D2D the paper motivates
	// (Section II-C).
	LTEDirect = radio.LTEDirect
)

// NewSimulation builds an empty simulation; add devices with
// (*Simulation).AddRelay and (*Simulation).AddUE, then Run.
func NewSimulation(opts Options) (*Simulation, error) { return core.New(opts) }

// PairScenario builds the paper's canonical measurement setup: one static
// relay and numUEs UEs at the given distance in meters, all running the
// same app profile.
func PairScenario(opts Options, profile AppProfile, numUEs int, distanceM float64, capacity int) (*Simulation, error) {
	return core.PairScenario(opts, profile, numUEs, distanceM, capacity)
}

// OriginalScenario builds the same topology with D2D disabled: every
// device sends its own heartbeats over cellular (the paper's baseline).
func OriginalScenario(opts Options, profile AppProfile, numUEs int, distanceM float64) (*Simulation, error) {
	return core.OriginalScenario(opts, profile, numUEs, distanceM)
}

// CrowdScenario scatters relays and UEs uniformly over a square area of
// the given side length in meters — the dense-crowd regime where signaling
// storms arise.
func CrowdScenario(opts Options, profile AppProfile, numRelays, numUEs int, sideM float64, capacity int) (*Simulation, error) {
	return core.CrowdScenario(opts, profile, numRelays, numUEs, sideM, capacity)
}

// App profiles measured by the paper (Section II-A, Table I).
var (
	// WeChat: 270 s period, 74 B heartbeats, 50 % heartbeat share.
	WeChat = hbmsg.WeChat
	// WhatsApp: 240 s period, 66 B heartbeats, 61.9 % share.
	WhatsApp = hbmsg.WhatsApp
	// QQ: 300 s period, 378 B heartbeats, 52.6 % share.
	QQ = hbmsg.QQ
	// Facebook: MQTT-style keep-alive, 48.4 % share.
	Facebook = hbmsg.Facebook
	// StandardHeartbeat: the 54 B reference heartbeat of Section V-A.
	StandardHeartbeat = hbmsg.StandardHeartbeat
	// Apps returns all Table I profiles.
	Apps = hbmsg.Apps
	// DefaultEnergyModel returns the paper-calibrated energy model.
	DefaultEnergyModel = energy.DefaultModel
)

// Real networked stack, re-exported from relaynet.
type (
	// Server is the IM presence server.
	Server = relaynet.Server
	// RelayAgent runs the simulator's relay (Algorithm 1, internal/device)
	// on a discrete-event kernel it feeds wall time, collecting heartbeats
	// from UE connections, batching them upstream and feeding back each
	// heartbeat the server acknowledges.
	RelayAgent = relaynet.RelayAgent
	// RelayAgentConfig parameterizes a RelayAgent.
	RelayAgentConfig = relaynet.RelayAgentConfig
	// UEClient is the paper's UE: it emits each app's heartbeats through a
	// relay, resends one directly when the relay's feedback does not come
	// back in time, and tracks the server's acks on the direct path, so
	// every heartbeat ends acknowledged or timed out. The load generator's
	// socket-per-UE fleet is made of the same client.
	UEClient = relaynet.UEClient
	// UEClientConfig parameterizes a UEClient.
	UEClientConfig = relaynet.UEClientConfig
	// UEApp is one heartbeat-producing app registered on a UEClient.
	UEApp = relaynet.UEApp
)

// NewServer returns an unstarted presence server.
func NewServer() *Server { return relaynet.NewServer() }

// NewRelayAgent returns an unstarted relay agent.
func NewRelayAgent(cfg RelayAgentConfig) (*RelayAgent, error) {
	return relaynet.NewRelayAgent(cfg)
}

// NewUEClient returns an unstarted UE client.
func NewUEClient(cfg UEClientConfig) (*UEClient, error) {
	return relaynet.NewUEClient(cfg)
}
