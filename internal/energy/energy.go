// Package energy models smartphone energy consumption for heartbeat
// transmissions. The paper measures instant current with a Monsoon Power
// Monitor at a constant 3.7 V and reports per-phase charge in µAh; this
// package mirrors that methodology: a Model holds per-phase charge constants
// calibrated against the paper's Tables III and IV, a Ledger accumulates
// charge per phase, and trace synthesis reproduces the current-versus-time
// shapes of Figs. 6 and 7.
package energy

import (
	"fmt"
	"strings"
	"time"
)

// MicroAmpHours is electric charge in µAh, the unit used throughout the
// paper's evaluation (at a fixed 3.7 V supply it is proportional to energy).
type MicroAmpHours float64

// String implements fmt.Stringer.
func (m MicroAmpHours) String() string { return fmt.Sprintf("%.2fµAh", float64(m)) }

// Phase identifies where in the heartbeat pipeline charge was spent.
type Phase int

// Phases of the D2D heartbeat framework, matching the breakdown of the
// paper's Table III plus the cellular and fallback paths.
const (
	PhaseDiscovery  Phase = iota + 1 // D2D peer discovery scan
	PhaseConnection                  // D2D group negotiation + connect
	PhaseD2DSend                     // UE forwarding a heartbeat over D2D
	PhaseD2DRecv                     // relay receiving a forwarded heartbeat
	PhaseCellular                    // cellular transmission incl. RRC tail
	PhaseFallback                    // duplicate cellular send after feedback loss
	PhaseIdleBase                    // baseline platform draw (trace analysis only)
)

// numPhases is how many accounting phases exist; valid Phase values run
// from PhaseDiscovery (1) to numPhases, so per-phase tables are arrays with
// slot 0 unused.
const numPhases = int(PhaseIdleBase)

var phaseNames = [numPhases + 1]string{
	PhaseDiscovery:  "discovery",
	PhaseConnection: "connection",
	PhaseD2DSend:    "d2d-send",
	PhaseD2DRecv:    "d2d-recv",
	PhaseCellular:   "cellular",
	PhaseFallback:   "fallback",
	PhaseIdleBase:   "idle-base",
}

func (p Phase) valid() bool { return p >= PhaseDiscovery && int(p) <= numPhases }

// String implements fmt.Stringer.
func (p Phase) String() string {
	if p.valid() {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Phases lists all accounting phases in display order.
func Phases() []Phase {
	return []Phase{
		PhaseDiscovery, PhaseConnection, PhaseD2DSend, PhaseD2DRecv,
		PhaseCellular, PhaseFallback, PhaseIdleBase,
	}
}

// Charges is a ledger's per-phase totals by value, indexed by Phase:
// c[PhaseCellular] is the cellular charge.
type Charges [numPhases + 1]MicroAmpHours

// PhaseSet is a set of phases. A ledger reports the phases it was ever
// charged against, which Charges alone cannot: a phase charged only zero
// is listed in reports and digests, a phase never charged is not.
type PhaseSet uint8

// Has reports whether p is in the set.
func (s PhaseSet) Has(p Phase) bool { return p.valid() && s&(1<<p) != 0 }

// ReferenceMessageSize is the standard heartbeat size used in the paper's
// experiments (Section V-A).
const ReferenceMessageSize = 54 // bytes

// Model holds the charge constants of the energy model. All per-event values
// are µAh at the reference message size and a 1 m link unless noted.
//
// The default calibration reproduces the paper's measurements; see
// DESIGN.md §2 for how the constants were derived and where the paper's own
// numbers are mutually inconsistent.
type Model struct {
	// D2D discovery + connection, one-time per D2D session (Table III).
	UEDiscovery     MicroAmpHours
	UEConnection    MicroAmpHours
	RelayDiscovery  MicroAmpHours
	RelayConnection MicroAmpHours

	// UED2DSend is the UE-side charge to forward one heartbeat (Table III,
	// "Forwarding" row).
	UED2DSend MicroAmpHours

	// RelayD2DRecvFirst is the relay-side charge to receive the first
	// heartbeat of a collection round from one UE, including the Wi-Fi
	// Direct group wake-up (Table IV: ≈ linear, ~123–130 µAh per UE).
	RelayD2DRecvFirst MicroAmpHours
	// RelayD2DRecvSteady is the marginal charge for subsequent receives in
	// an established, synchronized group.
	RelayD2DRecvSteady MicroAmpHours

	// CellularTxBase is the charge of one cellular transmission: RRC
	// promotion, transfer of one reference-size heartbeat, and the
	// high-power inactivity tail. Calibrated so that the UE's first-period
	// D2D total is a 55 % saving (Section V-A).
	CellularTxBase MicroAmpHours
	// CellularPerExtraMsg is the marginal charge per additional message
	// aggregated into the same cellular transmission.
	CellularPerExtraMsg MicroAmpHours
	// CellularPerExtraByte is the marginal charge per byte beyond the
	// reference message size, per message.
	CellularPerExtraByte MicroAmpHours

	// D2DDistanceSlope scales D2D send/recv charge with link distance
	// beyond the 1 m reference at which Table III was measured:
	// factor = 1 + D2DDistanceSlope × max(0, distance−1). Fig. 12 shows
	// Wi-Fi Direct consuming visibly more at 15 m than at 1 m.
	D2DDistanceSlope float64
	// D2DPerExtraByte is the marginal D2D charge per byte beyond the
	// reference size, per message (Fig. 13: nearly flat).
	D2DPerExtraByte MicroAmpHours

	// Trace-shape parameters (Figs. 6 and 7).
	IdleCurrentMA       float64       // baseline platform draw
	D2DPeakMA           float64       // D2D transfer spike
	D2DPeakHold         time.Duration // spike plateau
	D2DDecay            time.Duration // linear decay back to idle
	CellActiveMA        float64       // cellular transfer plateau
	CellActiveHold      time.Duration
	CellTailMA          float64 // high-power RRC tail
	CellTailHold        time.Duration
	CellDecay           time.Duration
	TraceSampleEvery    time.Duration // power-monitor sampling period
	D2DTraceWindow      time.Duration
	CellularTraceWindow time.Duration
}

// DefaultModel returns the paper-calibrated energy model.
func DefaultModel() Model {
	return Model{
		UEDiscovery:     132.24,
		UEConnection:    63.74,
		RelayDiscovery:  122.50,
		RelayConnection: 60.29,

		UED2DSend:          73.09,
		RelayD2DRecvFirst:  123.22,
		RelayD2DRecvSteady: 55.0,

		CellularTxBase:       598.0,
		CellularPerExtraMsg:  9.0,
		CellularPerExtraByte: 0.02,

		D2DDistanceSlope: 0.115,
		D2DPerExtraByte:  0.01,

		IdleCurrentMA:       120,
		D2DPeakMA:           750,
		D2DPeakHold:         250 * time.Millisecond,
		D2DDecay:            330 * time.Millisecond,
		CellActiveMA:        600,
		CellActiveHold:      1500 * time.Millisecond,
		CellTailMA:          450,
		CellTailHold:        4340 * time.Millisecond,
		CellDecay:           300 * time.Millisecond,
		TraceSampleEvery:    100 * time.Millisecond,
		D2DTraceWindow:      2500 * time.Millisecond,
		CellularTraceWindow: 8 * time.Second,
	}
}

// Validate reports whether the model's constants are usable.
func (m Model) Validate() error {
	type check struct {
		name string
		v    float64
	}
	checks := []check{
		{"UEDiscovery", float64(m.UEDiscovery)},
		{"UEConnection", float64(m.UEConnection)},
		{"RelayDiscovery", float64(m.RelayDiscovery)},
		{"RelayConnection", float64(m.RelayConnection)},
		{"UED2DSend", float64(m.UED2DSend)},
		{"RelayD2DRecvFirst", float64(m.RelayD2DRecvFirst)},
		{"RelayD2DRecvSteady", float64(m.RelayD2DRecvSteady)},
		{"CellularTxBase", float64(m.CellularTxBase)},
	}
	for _, c := range checks {
		if c.v <= 0 {
			return fmt.Errorf("energy: %s must be positive, got %v", c.name, c.v)
		}
	}
	if m.D2DDistanceSlope < 0 {
		return fmt.Errorf("energy: D2DDistanceSlope must be non-negative, got %v", m.D2DDistanceSlope)
	}
	if m.TraceSampleEvery <= 0 {
		return fmt.Errorf("energy: TraceSampleEvery must be positive, got %v", m.TraceSampleEvery)
	}
	return nil
}

// distanceFactor returns the multiplicative D2D charge penalty at the given
// link distance in meters, normalized to 1 at the 1 m reference distance of
// the paper's measurements.
func (m Model) distanceFactor(distM float64) float64 {
	if distM < 1 {
		return 1
	}
	return 1 + m.D2DDistanceSlope*(distM-1)
}

// sizeExtra returns the marginal per-message charge for bytes beyond the
// reference size.
func (m Model) sizeExtra(per MicroAmpHours, sizeBytes int) MicroAmpHours {
	extra := sizeBytes - ReferenceMessageSize
	if extra <= 0 {
		return 0
	}
	return per * MicroAmpHours(extra)
}

// D2DSendCharge returns the UE-side charge to forward one heartbeat of
// sizeBytes over a D2D link of distM meters.
func (m Model) D2DSendCharge(sizeBytes int, distM float64) MicroAmpHours {
	return (m.UED2DSend + m.sizeExtra(m.D2DPerExtraByte, sizeBytes)) *
		MicroAmpHours(m.distanceFactor(distM))
}

// D2DRecvCharge returns the relay-side charge to receive one forwarded
// heartbeat. firstOfRound selects the group wake-up cost (Table IV) versus
// the steady-state marginal cost.
func (m Model) D2DRecvCharge(sizeBytes int, distM float64, firstOfRound bool) MicroAmpHours {
	base := m.RelayD2DRecvSteady
	if firstOfRound {
		base = m.RelayD2DRecvFirst
	}
	return (base + m.sizeExtra(m.D2DPerExtraByte, sizeBytes)) *
		MicroAmpHours(m.distanceFactor(distM))
}

// CellularTxCharge returns the charge of one cellular transmission carrying
// msgs messages totalling payloadBytes. Aggregation amortizes the promotion
// and tail: extra messages cost only their marginal transfer charge.
func (m Model) CellularTxCharge(msgs, payloadBytes int) MicroAmpHours {
	if msgs <= 0 {
		return 0
	}
	c := m.CellularTxBase + m.CellularPerExtraMsg*MicroAmpHours(msgs-1)
	extraBytes := payloadBytes - msgs*ReferenceMessageSize
	if extraBytes > 0 {
		c += m.CellularPerExtraByte * MicroAmpHours(extraBytes)
	}
	return c
}

// Ledger accumulates charge per phase. It is not safe for concurrent use:
// every ledger belongs to one simulated device, and a device runs on one
// goroutine at a time (its scheduler's, or its tile's between barriers).
// The zero value is an empty ledger.
type Ledger struct {
	phases Charges
	events [numPhases + 1]int
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Add records charge c against phase p. Negative charge is rejected silently
// as zero; charge only ever accumulates. An undeclared phase is a caller
// bug and panics.
func (l *Ledger) Add(p Phase, c MicroAmpHours) {
	if !p.valid() {
		panic(fmt.Sprintf("energy: charge against undeclared %v", p))
	}
	if c < 0 {
		c = 0
	}
	l.phases[p] += c
	l.events[p]++
}

// Phase returns the accumulated charge for phase p.
func (l *Ledger) Phase(p Phase) MicroAmpHours {
	return l.phases[p]
}

// Events returns how many charge events were recorded for phase p.
func (l *Ledger) Events(p Phase) int {
	return l.events[p]
}

// Total returns the accumulated charge across all phases. Summation runs in
// phase order so that floating-point rounding is reproducible across runs.
func (l *Ledger) Total() MicroAmpHours {
	var sum MicroAmpHours
	for _, c := range l.phases {
		sum += c
	}
	return sum
}

// Snapshot returns a copy of the per-phase totals and the set of phases
// that were ever charged.
func (l *Ledger) Snapshot() (Charges, PhaseSet) {
	var charged PhaseSet
	for p, n := range l.events {
		if n > 0 {
			charged |= 1 << p
		}
	}
	return l.phases, charged
}

// String renders the ledger as "phase=charge" pairs in phase order.
func (l *Ledger) String() string {
	totals, charged := l.Snapshot()
	var b strings.Builder
	for p := PhaseDiscovery; p.valid(); p++ {
		if !charged.Has(p) {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.2f", p, float64(totals[p]))
	}
	return b.String()
}
