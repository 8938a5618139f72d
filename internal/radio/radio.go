// Package radio models D2D link-layer physics: log-distance path loss,
// RSSI-based distance estimation, link budget, transfer time and
// distance-dependent loss. The paper ranks candidate relays by signal
// strength ("we can obtain the relative distances between the UE and the
// discovered relays through signal strength in D2D discovery") and bounds
// connectivity by the chosen technique's communication range, which is why
// both Wi-Fi Direct and Bluetooth profiles are provided (Section IV-A).
package radio

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Technique identifies a D2D radio technology.
type Technique int

// Supported D2D techniques. The paper's prototype uses Wi-Fi Direct;
// Bluetooth is retained for the ablation discussed in Section IV-A, and LTE
// Direct models the next-generation technology the paper motivates in
// Section II-C ("discovery of thousands of devices in proximity of
// approximately 500 meters").
const (
	WiFiDirect Technique = iota + 1
	Bluetooth
	LTEDirect
)

// String implements fmt.Stringer.
func (t Technique) String() string {
	switch t {
	case WiFiDirect:
		return "wifi-direct"
	case Bluetooth:
		return "bluetooth"
	case LTEDirect:
		return "lte-direct"
	default:
		return fmt.Sprintf("technique(%d)", int(t))
	}
}

// Profile holds the physical parameters of a D2D technique.
type Profile struct {
	Technique Technique
	// TxPowerDBm is the transmit power.
	TxPowerDBm float64
	// RefLossDB is the path loss at the 1 m reference distance.
	RefLossDB float64
	// PathLossExponent is the log-distance exponent (2 free space,
	// ~3 indoor).
	PathLossExponent float64
	// SensitivityDBm is the weakest RSSI at which the link still works.
	SensitivityDBm float64
	// ShadowingSigmaDB is the standard deviation of log-normal shadowing
	// applied to RSSI measurements.
	ShadowingSigmaDB float64
	// BitrateMbps is the effective application-layer throughput.
	BitrateMbps float64
	// PerLinkOverhead is fixed per-transfer latency (medium access,
	// acknowledgement turnaround).
	PerLinkOverhead time.Duration
	// EdgeLossStart is the fraction of MaxRange beyond which transfer loss
	// probability starts rising from zero.
	EdgeLossStart float64
	// MaxEdgeLoss is the loss probability exactly at MaxRange.
	MaxEdgeLoss float64
}

// WiFiDirectProfile returns the Wi-Fi Direct link profile: longer range and
// higher throughput than Bluetooth, which is why the prototype adopts it
// (Section IV-A).
func WiFiDirectProfile() Profile {
	return Profile{
		Technique:        WiFiDirect,
		TxPowerDBm:       15,
		RefLossDB:        40,
		PathLossExponent: 3.0,
		SensitivityDBm:   -72, // ≈ 35 m indoor range
		ShadowingSigmaDB: 2.0,
		BitrateMbps:      25,
		PerLinkOverhead:  8 * time.Millisecond,
		EdgeLossStart:    0.6,
		MaxEdgeLoss:      0.5,
	}
}

// BluetoothProfile returns the Bluetooth link profile: low power but a
// "communication range typically less than 10 m, too limited to meet our
// need" (Section IV-A).
func BluetoothProfile() Profile {
	return Profile{
		Technique:        Bluetooth,
		TxPowerDBm:       4,
		RefLossDB:        40,
		PathLossExponent: 3.0,
		SensitivityDBm:   -66, // ≈ 10 m indoor range
		ShadowingSigmaDB: 2.5,
		BitrateMbps:      2,
		PerLinkOverhead:  15 * time.Millisecond,
		EdgeLossStart:    0.6,
		MaxEdgeLoss:      0.6,
	}
}

// LTEDirectProfile returns the LTE Direct link profile: licensed-band D2D
// with an ~500 m discovery range (Section II-C). The paper had to abandon
// it for lack of deployment; it is modeled here for the coverage ablation.
func LTEDirectProfile() Profile {
	return Profile{
		Technique:        LTEDirect,
		TxPowerDBm:       23,
		RefLossDB:        40,
		PathLossExponent: 3.0,
		SensitivityDBm:   -98, // ≈ 490 m range
		ShadowingSigmaDB: 3.0,
		BitrateMbps:      10,
		PerLinkOverhead:  20 * time.Millisecond,
		EdgeLossStart:    0.6,
		MaxEdgeLoss:      0.5,
	}
}

// ProfileFor returns the profile for a technique.
func ProfileFor(t Technique) (Profile, error) {
	switch t {
	case WiFiDirect:
		return WiFiDirectProfile(), nil
	case Bluetooth:
		return BluetoothProfile(), nil
	case LTEDirect:
		return LTEDirectProfile(), nil
	default:
		return Profile{}, fmt.Errorf("radio: unknown technique %d", int(t))
	}
}

// Validate reports whether the profile is usable.
func (p Profile) Validate() error {
	if p.PathLossExponent <= 0 {
		return fmt.Errorf("radio: path loss exponent must be positive, got %v", p.PathLossExponent)
	}
	if p.BitrateMbps <= 0 {
		return fmt.Errorf("radio: bitrate must be positive, got %v", p.BitrateMbps)
	}
	if p.SensitivityDBm >= p.TxPowerDBm-p.RefLossDB {
		return fmt.Errorf("radio: sensitivity %v dBm leaves no usable range", p.SensitivityDBm)
	}
	if p.EdgeLossStart < 0 || p.EdgeLossStart >= 1 {
		return fmt.Errorf("radio: EdgeLossStart must be in [0,1), got %v", p.EdgeLossStart)
	}
	if p.MaxEdgeLoss < 0 || p.MaxEdgeLoss > 1 {
		return fmt.Errorf("radio: MaxEdgeLoss must be in [0,1], got %v", p.MaxEdgeLoss)
	}
	return nil
}

// minModelDistance floors distances so the log-distance model stays finite
// for co-located devices.
const minModelDistance = 0.1 // meters

// MeanRSSI returns the shadowing-free RSSI at distance d meters.
func (p Profile) MeanRSSI(d float64) float64 {
	if d < minModelDistance {
		d = minModelDistance
	}
	return p.TxPowerDBm - p.RefLossDB - 10*p.PathLossExponent*math.Log10(d)
}

// MeasureRSSI returns one noisy RSSI measurement at distance d, using the
// caller's deterministic random source for log-normal shadowing.
func (p Profile) MeasureRSSI(d float64, rng *rand.Rand) float64 {
	rssi := p.MeanRSSI(d)
	if p.ShadowingSigmaDB > 0 && rng != nil {
		rssi += rng.NormFloat64() * p.ShadowingSigmaDB
	}
	return rssi
}

// MaxRange returns the distance at which the mean RSSI reaches sensitivity.
func (p Profile) MaxRange() float64 {
	exp := (p.TxPowerDBm - p.RefLossDB - p.SensitivityDBm) / (10 * p.PathLossExponent)
	return math.Pow(10, exp)
}

// InRange reports whether distance d is within the technique's mean range.
func (p Profile) InRange(d float64) bool {
	return d <= p.MaxRange()
}

// EstimateDistance inverts the path-loss model for a measured RSSI: this is
// how a UE ranks discovered relays by proximity.
func (p Profile) EstimateDistance(rssi float64) float64 {
	exp := (p.TxPowerDBm - p.RefLossDB - rssi) / (10 * p.PathLossExponent)
	d := math.Pow(10, exp)
	if d < minModelDistance {
		d = minModelDistance
	}
	return d
}

// TransferTime returns how long transferring sizeBytes takes on this link.
func (p Profile) TransferTime(sizeBytes int) time.Duration {
	if sizeBytes < 0 {
		sizeBytes = 0
	}
	bits := float64(sizeBytes) * 8
	sec := bits / (p.BitrateMbps * 1e6)
	return p.PerLinkOverhead + time.Duration(sec*float64(time.Second))
}

// LossProbability returns the probability that a single transfer at
// distance d fails. It is zero inside the reliable core of the range, rises
// polynomially toward MaxEdgeLoss at the range edge, and is one beyond
// range — modeling "the physical distance between involved smartphones
// might exceed the maximum communication distance ... while smartphones
// movement" (Section III-A).
func (p Profile) LossProbability(d float64) float64 {
	return p.lossWithin(d, p.MaxRange())
}

// lossWithin is LossProbability given the profile's MaxRange r.
func (p *Profile) lossWithin(d, r float64) float64 {
	if d >= r {
		return 1
	}
	start := p.EdgeLossStart * r
	if d <= start {
		return 0
	}
	frac := (d - start) / (r - start)
	return p.MaxEdgeLoss * frac * frac
}

// TransferOK draws whether a transfer at distance d succeeds.
func (p Profile) TransferOK(d float64, rng *rand.Rand) bool {
	return drawTransfer(p.LossProbability(d), rng)
}

// drawTransfer draws a transfer's outcome at the given loss probability; no
// number is drawn when the outcome is certain.
func drawTransfer(loss float64, rng *rand.Rand) bool {
	if loss <= 0 {
		return true
	}
	if loss >= 1 || rng == nil {
		return false
	}
	return rng.Float64() >= loss
}

// Ranged is a Profile with its MaxRange computed once, for an owner that
// asks about range per candidate and per transfer: MaxRange is a math.Pow,
// and InRange, LossProbability and TransferOK each start with it. The
// cached value is the float64 Profile.MaxRange returns, so every answer is
// bit-for-bit the Profile's own. The embedded Profile must not be modified
// afterwards.
type Ranged struct {
	Profile
	maxRange float64
}

// Ranged returns p with its MaxRange cached.
func (p Profile) Ranged() Ranged { return Ranged{Profile: p, maxRange: p.MaxRange()} }

// MaxRange returns the cached Profile.MaxRange.
func (r Ranged) MaxRange() float64 { return r.maxRange }

// InRange is Profile.InRange against the cached range.
func (r Ranged) InRange(d float64) bool { return d <= r.maxRange }

// LossProbability is Profile.LossProbability against the cached range.
func (r Ranged) LossProbability(d float64) float64 { return r.lossWithin(d, r.maxRange) }

// TransferOK is Profile.TransferOK against the cached range.
func (r Ranged) TransferOK(d float64, rng *rand.Rand) bool {
	return drawTransfer(r.LossProbability(d), rng)
}
