package rec

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"d2dhb/internal/metrics"
)

// Quantiles summarizes one latency distribution in milliseconds, computed
// exactly from the sorted sample (no histogram bucketing) so a
// deterministic replay produces bit-identical numbers.
type Quantiles struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MaxMs  float64 `json:"maxMs"`
}

// Signaling counts uplink work on the network side of a run.
type Signaling struct {
	// Uplinks is the number of uplink transactions that carried
	// heartbeats: direct sends plus relay batch flushes. This is the
	// quantity the paper's aggregation reduces.
	Uplinks uint64 `json:"uplinks"`
	// Batches is the relay-flush share of Uplinks.
	Batches uint64 `json:"batches"`
	// L3Messages is the modeled layer-3 signaling total (RRC setup/
	// release); only the simulator can count it, so it is zero for live
	// and recorded sources.
	L3Messages uint64 `json:"l3Messages,omitempty"`
}

// Metrics is one replay's (or the recorded run's) outcome summary — the
// unit of sim-vs-real parity comparison.
type Metrics struct {
	Source        string    `json:"source"` // recorded | sim | live
	Sent          uint64    `json:"sent"`
	Delivered     uint64    `json:"delivered"`
	Timeouts      uint64    `json:"timeouts"`
	Expired       uint64    `json:"expired,omitempty"`
	DeliveryRatio float64   `json:"deliveryRatio"`
	AckLatency    Quantiles `json:"ackLatency"`
	Signaling     Signaling `json:"signaling"`
}

// Finish derives DeliveryRatio after the counters are final.
func (m *Metrics) Finish() {
	if m.Sent > 0 {
		m.DeliveryRatio = float64(m.Delivered) / float64(m.Sent)
	}
}

// Digest returns a stable hex fingerprint of the metrics. Two replays of
// the same trace through the deterministic simulator must produce equal
// digests; a changed digest is a behavioral regression.
func (m Metrics) Digest() string {
	h := fnv.New64a()
	_, _ = fmt.Fprintf(h, "%s|%d|%d|%d|%d|%.9f|%d|%.6f|%.6f|%.6f|%.6f|%.6f|%d|%d|%d",
		m.Source, m.Sent, m.Delivered, m.Timeouts, m.Expired, m.DeliveryRatio,
		m.AckLatency.Count, m.AckLatency.MeanMs, m.AckLatency.P50Ms,
		m.AckLatency.P95Ms, m.AckLatency.P99Ms, m.AckLatency.MaxMs,
		m.Signaling.Uplinks, m.Signaling.Batches, m.Signaling.L3Messages)
	return fmt.Sprintf("%016x", h.Sum64())
}

// sample accumulates latency observations (milliseconds) for exact
// quantiles.
type sample struct {
	vals []float64
	sum  float64
}

func (s *sample) add(ms float64) {
	s.vals = append(s.vals, ms)
	s.sum += ms
}

// quantiles sorts and summarizes the sample.
func (s *sample) quantiles() Quantiles {
	q := Quantiles{Count: uint64(len(s.vals))}
	if len(s.vals) == 0 {
		return q
	}
	slices.Sort(s.vals)
	at := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(s.vals)))) - 1
		if i < 0 {
			i = 0
		}
		return s.vals[i]
	}
	q.MeanMs = s.sum / float64(len(s.vals))
	q.P50Ms = at(0.50)
	q.P95Ms = at(0.95)
	q.P99Ms = at(0.99)
	q.MaxMs = s.vals[len(s.vals)-1]
	return q
}

// ParityReport lines the recorded outcome up against the sim and live
// replays of the same trace file.
type ParityReport struct {
	// TraceDigest identifies the workload all three columns consumed.
	TraceDigest string `json:"traceDigest"`
	// SimDigest is the deterministic replay fingerprint: the regression
	// key a golden test pins.
	SimDigest string  `json:"simDigest"`
	Recorded  Metrics `json:"recorded"`
	Sim       Metrics `json:"sim"`
	Live      Metrics `json:"live"`
}

// NewParityReport assembles the report and fills the digests.
func NewParityReport(tl *Timeline, recorded, sim, live Metrics) ParityReport {
	return ParityReport{
		TraceDigest: tl.Digest(),
		SimDigest:   sim.Digest(),
		Recorded:    recorded,
		Sim:         sim,
		Live:        live,
	}
}

// DeliveryGap returns |sim − live| delivery ratio, the headline parity
// number.
func (p ParityReport) DeliveryGap() float64 {
	return math.Abs(p.Sim.DeliveryRatio - p.Live.DeliveryRatio)
}

// Table renders the three-column parity comparison.
func (p ParityReport) Table() *metrics.Table {
	t := metrics.NewTable(fmt.Sprintf("sim-vs-real parity (trace %s)", p.TraceDigest),
		"metric", "recorded", "sim", "live", "sim−live")
	u := func(v uint64) string { return fmt.Sprintf("%d", v) }
	f := func(v float64) string { return metrics.F(v) }
	rowU := func(name string, rec, sim, live uint64) {
		t.AddRow(name, u(rec), u(sim), u(live), fmt.Sprintf("%+d", int64(sim)-int64(live)))
	}
	rowF := func(name string, rec, sim, live float64) {
		t.AddRow(name, f(rec), f(sim), f(live), fmt.Sprintf("%+.3f", sim-live))
	}
	rowU("sent", p.Recorded.Sent, p.Sim.Sent, p.Live.Sent)
	rowU("delivered", p.Recorded.Delivered, p.Sim.Delivered, p.Live.Delivered)
	rowU("timeouts", p.Recorded.Timeouts, p.Sim.Timeouts, p.Live.Timeouts)
	rowF("delivery ratio", p.Recorded.DeliveryRatio, p.Sim.DeliveryRatio, p.Live.DeliveryRatio)
	rowF("ack p50 (ms)", p.Recorded.AckLatency.P50Ms, p.Sim.AckLatency.P50Ms, p.Live.AckLatency.P50Ms)
	rowF("ack p95 (ms)", p.Recorded.AckLatency.P95Ms, p.Sim.AckLatency.P95Ms, p.Live.AckLatency.P95Ms)
	rowF("ack p99 (ms)", p.Recorded.AckLatency.P99Ms, p.Sim.AckLatency.P99Ms, p.Live.AckLatency.P99Ms)
	rowU("uplink transactions", p.Recorded.Signaling.Uplinks, p.Sim.Signaling.Uplinks, p.Live.Signaling.Uplinks)
	rowU("relay batches", p.Recorded.Signaling.Batches, p.Sim.Signaling.Batches, p.Live.Signaling.Batches)
	t.AddRow("L3 messages (model)", "-", u(p.Sim.Signaling.L3Messages), "-", "")
	return t
}

// JSON renders the report as indented JSON.
func (p ParityReport) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}
