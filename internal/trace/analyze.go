package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// DelayStats summarizes a delay distribution in milliseconds.
type DelayStats struct {
	Count  int
	MeanMs float64
	P50Ms  float64
	P95Ms  float64
	MaxMs  float64
}

func delayStats(delays []float64) DelayStats {
	if len(delays) == 0 {
		return DelayStats{}
	}
	sort.Float64s(delays)
	sum := 0.0
	for _, d := range delays {
		sum += d
	}
	pct := func(p float64) float64 {
		idx := int(p * float64(len(delays)-1))
		return delays[idx]
	}
	return DelayStats{
		Count:  len(delays),
		MeanMs: sum / float64(len(delays)),
		P50Ms:  pct(0.50),
		P95Ms:  pct(0.95),
		MaxMs:  delays[len(delays)-1],
	}
}

// String implements fmt.Stringer.
func (d DelayStats) String() string {
	return fmt.Sprintf("n=%d mean=%.0fms p50=%.0fms p95=%.0fms max=%.0fms",
		d.Count, d.MeanMs, d.P50Ms, d.P95Ms, d.MaxMs)
}

// Analysis is the digest of one event stream.
type Analysis struct {
	// Total, Relayed and Direct are generation→delivery delay
	// distributions; Relayed covers heartbeats carried by a relay
	// (including fallback duplicates of relayed attempts), Direct those
	// the source transmitted itself.
	Total   DelayStats
	Relayed DelayStats
	Direct  DelayStats
	// LateDeliveries counts deliveries past their deadline.
	LateDeliveries int
	// KindCounts tallies every event kind seen.
	KindCounts map[Kind]int
}

// hbKey identifies one heartbeat across events.
type hbKey struct {
	device string
	seq    uint64
}

// Analyze digests an event stream into delay distributions. Events may be
// in any order; generation and delivery are matched by (device, seq), and a
// heartbeat delivered more than once (fallback duplicate) contributes its
// earliest delivery.
func Analyze(events []Event) Analysis {
	a := Analysis{KindCounts: make(map[Kind]int)}
	generated := make(map[hbKey]int64) // generation instant, ms
	delivered := make(map[hbKey]Event)
	for _, ev := range events {
		a.KindCounts[ev.Kind]++
		key := hbKey{device: ev.Device, seq: ev.Seq}
		switch ev.Kind {
		case KindGenerated:
			generated[key] = ev.At.Milliseconds()
		case KindDelivery:
			if !ev.OnTime {
				a.LateDeliveries++
			}
			if prev, ok := delivered[key]; !ok || ev.At.Milliseconds() < prev.At.Milliseconds() {
				delivered[key] = ev
			}
		}
	}
	var total, relayed, direct []float64
	for key, ev := range delivered {
		born, ok := generated[key]
		if !ok {
			continue // relay own heartbeats have no generation event
		}
		d := float64(ev.At.Milliseconds() - born)
		if d < 0 {
			continue
		}
		total = append(total, d)
		if ev.Peer != "" && ev.Peer != ev.Device {
			relayed = append(relayed, d)
		} else {
			direct = append(direct, d)
		}
	}
	a.Total = delayStats(total)
	a.Relayed = delayStats(relayed)
	a.Direct = delayStats(direct)
	return a
}

// ReadJSONL decodes an event stream written by the JSONL tracer.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return events, nil
}
