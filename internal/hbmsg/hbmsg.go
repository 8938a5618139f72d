// Package hbmsg models instant-messaging heartbeat traffic: the heartbeat
// messages themselves, the per-app profiles the paper reports (period, size,
// expiry), and the mixed heartbeat/data traffic generator that reproduces
// the Table I heartbeat proportions.
package hbmsg

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"
)

// DeviceID identifies a smartphone in the system.
type DeviceID string

// Heartbeat is one keep-alive message. A heartbeat does not require a reply;
// it only resets the IM server's expiration timer for its sender
// (Section II-A).
type Heartbeat struct {
	// App is the profile name that produced the heartbeat.
	App string
	// Src is the originating device.
	Src DeviceID
	// Seq is the per-device sequence number.
	Seq uint64
	// Origin is the virtual instant the heartbeat was generated.
	Origin time.Duration
	// Expiry is how long after Origin the message remains useful (T_k in
	// Algorithm 1). Past the deadline, forwarding it no longer keeps the
	// sender online.
	Expiry time.Duration
	// Size is the wire size in bytes.
	Size int
}

// Deadline returns the absolute instant by which the heartbeat must reach
// the server.
func (h Heartbeat) Deadline() time.Duration { return h.Origin + h.Expiry }

// Expired reports whether the heartbeat is useless at instant now.
func (h Heartbeat) Expired(now time.Duration) bool { return now > h.Deadline() }

// String implements fmt.Stringer.
func (h Heartbeat) String() string {
	return fmt.Sprintf("%s/%s#%d(%dB, origin %v, expiry %v)",
		h.Src, h.App, h.Seq, h.Size, h.Origin, h.Expiry)
}

// AppProfile describes one IM app's traffic behaviour. Periods and sizes for
// WeChat, WhatsApp and QQ are the measurements quoted in Section II-A; the
// heartbeat proportions are Table I.
type AppProfile struct {
	// Name identifies the app.
	Name string
	// Period is the heartbeat interval.
	Period time.Duration
	// Size is the heartbeat size in bytes.
	Size int
	// ExpiryFactor scales Period into the per-message expiration time T_k.
	// The paper constrains delay to T ("although it is usually set as 3T
	// for commercial apps, such as WeChat").
	ExpiryFactor float64
	// HeartbeatShare is the fraction of the app's total messages that are
	// heartbeats (Table I).
	HeartbeatShare float64
	// DataMsgSize is the mean size of a non-heartbeat message, for the
	// traffic-mix generator.
	DataMsgSize int
}

// Expiry returns the per-message expiration time T_k.
func (p AppProfile) Expiry() time.Duration {
	return time.Duration(float64(p.Period) * p.ExpiryFactor)
}

// HeartbeatsPerHour returns the heartbeat rate implied by the period.
func (p AppProfile) HeartbeatsPerHour() float64 {
	if p.Period <= 0 {
		return 0
	}
	return float64(time.Hour) / float64(p.Period)
}

// DataMsgsPerHour returns the data-message rate that yields the profile's
// Table I heartbeat share: share = hb / (hb + data).
func (p AppProfile) DataMsgsPerHour() float64 {
	if p.HeartbeatShare <= 0 || p.HeartbeatShare >= 1 {
		return 0
	}
	hb := p.HeartbeatsPerHour()
	return hb * (1 - p.HeartbeatShare) / p.HeartbeatShare
}

// Validate reports whether the profile is usable.
func (p AppProfile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("hbmsg: empty profile name")
	}
	if p.Period <= 0 {
		return fmt.Errorf("hbmsg: %s: period must be positive, got %v", p.Name, p.Period)
	}
	if p.Size <= 0 {
		return fmt.Errorf("hbmsg: %s: size must be positive, got %d", p.Name, p.Size)
	}
	if p.ExpiryFactor <= 0 {
		return fmt.Errorf("hbmsg: %s: expiry factor must be positive, got %v", p.Name, p.ExpiryFactor)
	}
	if p.HeartbeatShare < 0 || p.HeartbeatShare >= 1 {
		return fmt.Errorf("hbmsg: %s: heartbeat share must be in [0,1), got %v", p.Name, p.HeartbeatShare)
	}
	return nil
}

// Heartbeat builds heartbeat #seq from device src generated at origin.
func (p AppProfile) Heartbeat(src DeviceID, seq uint64, origin time.Duration) Heartbeat {
	return Heartbeat{
		App:    p.Name,
		Src:    src,
		Seq:    seq,
		Origin: origin,
		Expiry: p.Expiry(),
		Size:   p.Size,
	}
}

// WeChat returns the WeChat profile: 270 s period, 74 B heartbeats, 50 %
// heartbeat share (Section II-A and Table I).
func WeChat() AppProfile {
	return AppProfile{
		Name: "WeChat", Period: 270 * time.Second, Size: 74,
		ExpiryFactor: 1, HeartbeatShare: 0.50, DataMsgSize: 900,
	}
}

// WhatsApp returns the WhatsApp profile (240 s period, 66 B heartbeats,
// 61.9 % heartbeat share).
func WhatsApp() AppProfile {
	return AppProfile{
		Name: "WhatsApp", Period: 240 * time.Second, Size: 66,
		ExpiryFactor: 1, HeartbeatShare: 0.619, DataMsgSize: 750,
	}
}

// QQ returns the QQ profile (300 s period, 378 B heartbeats, 52.6 %
// heartbeat share).
func QQ() AppProfile {
	return AppProfile{
		Name: "QQ", Period: 300 * time.Second, Size: 378,
		ExpiryFactor: 1, HeartbeatShare: 0.526, DataMsgSize: 800,
	}
}

// Facebook returns the Facebook Messenger profile: 48.4 % heartbeat share
// (Table I); the paper does not quote its period and size, so typical MQTT
// keep-alive parameters are substituted.
func Facebook() AppProfile {
	return AppProfile{
		Name: "Facebook", Period: 300 * time.Second, Size: 100,
		ExpiryFactor: 1, HeartbeatShare: 0.484, DataMsgSize: 1000,
	}
}

// Diagnostics returns a periodic diagnostics-report profile. The paper's
// conclusion extends the framework to any periodic message that is "small
// in size and short in duration, [doesn't] need to reply, [is]
// delay-tolerant" — app telemetry pings fit exactly, with the commercial
// 3× delay tolerance.
func Diagnostics() AppProfile {
	return AppProfile{
		Name: "Diagnostics", Period: 600 * time.Second, Size: 120,
		ExpiryFactor: 3, HeartbeatShare: 0.9, DataMsgSize: 400,
	}
}

// AdRefresh returns a periodic advertisement-refresh profile, the other
// extension example the paper's conclusion names.
func AdRefresh() AppProfile {
	return AppProfile{
		Name: "AdRefresh", Period: 900 * time.Second, Size: 200,
		ExpiryFactor: 3, HeartbeatShare: 0.9, DataMsgSize: 600,
	}
}

// StandardHeartbeat returns the generic 54 B reference heartbeat profile the
// paper uses in its energy experiments (Section V-A).
func StandardHeartbeat() AppProfile {
	return AppProfile{
		Name: "Standard", Period: 270 * time.Second, Size: 54,
		ExpiryFactor: 1, HeartbeatShare: 0.5, DataMsgSize: 900,
	}
}

// Apps returns the Table I app profiles in the paper's column order.
func Apps() []AppProfile {
	return []AppProfile{WeChat(), WhatsApp(), QQ(), Facebook()}
}

// ProfileByName resolves a profile by its Name, ignoring case. "std" and
// the empty name are StandardHeartbeat.
func ProfileByName(name string) (AppProfile, error) {
	if name == "" || strings.EqualFold(name, "std") {
		return StandardHeartbeat(), nil
	}
	for _, p := range [...]AppProfile{WeChat(), WhatsApp(), QQ(), Facebook(), Diagnostics(), AdRefresh(), StandardHeartbeat()} {
		if strings.EqualFold(name, p.Name) {
			return p, nil
		}
	}
	return AppProfile{}, fmt.Errorf("hbmsg: unknown app profile %q", name)
}

// TrafficCounts summarizes a generated message stream.
type TrafficCounts struct {
	Heartbeats int
	DataMsgs   int
}

// Total returns the total message count.
func (c TrafficCounts) Total() int { return c.Heartbeats + c.DataMsgs }

// HeartbeatShare returns the observed heartbeat fraction.
func (c TrafficCounts) HeartbeatShare() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.Heartbeats) / float64(c.Total())
}

// GenerateTraffic simulates the app's message stream over the given
// duration: heartbeats strictly periodic, data messages Poisson at the rate
// implied by the Table I share. The result's HeartbeatShare converges to the
// profile's share as duration grows.
func (p AppProfile) GenerateTraffic(duration time.Duration, rng *rand.Rand) (TrafficCounts, error) {
	if err := p.Validate(); err != nil {
		return TrafficCounts{}, err
	}
	if duration <= 0 {
		return TrafficCounts{}, fmt.Errorf("hbmsg: duration must be positive, got %v", duration)
	}
	if rng == nil {
		return TrafficCounts{}, fmt.Errorf("hbmsg: nil rng")
	}
	var c TrafficCounts
	c.Heartbeats = int(duration / p.Period)
	rate := p.DataMsgsPerHour() / float64(time.Hour) // msgs per ns
	if rate > 0 {
		// Poisson arrivals via exponential inter-arrival times.
		at := time.Duration(0)
		for {
			gap := time.Duration(rng.ExpFloat64() / rate)
			if gap <= 0 {
				gap = 1
			}
			at += gap
			if at > duration {
				break
			}
			c.DataMsgs++
		}
	}
	return c, nil
}

// ExpectedShareError returns |observed − table| for a generated stream, used
// by the Table I experiment to report reproduction error.
func (p AppProfile) ExpectedShareError(c TrafficCounts) float64 {
	return math.Abs(c.HeartbeatShare() - p.HeartbeatShare)
}
