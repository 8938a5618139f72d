// Package rec defines a compact, versioned trace format for heartbeat
// workloads (D2DR): the per-heartbeat arrival timeline of one real run
// (client table, fault-window markers, varint/delta-encoded send/ack/timeout
// events), the Recorder that encodes a live run's trace events into it, and
// the replay metrics/parity report that let the identical timeline be driven
// through both the discrete-event simulator and the live TCP stack. One
// captured "bad day" becomes a permanent regression workload, and
// sim-vs-real divergence on the same trace becomes a measurable parity
// metric.
//
// The package itself is clock-free: every recorded instant is the event's
// own, so the simulator's replay can build virtual-time timelines and the
// Recorder live ones from the same types.
package rec

import (
	"fmt"
	"hash/fnv"
	"time"
)

// Path classifies how a client's heartbeats travelled in the recorded run.
type Path uint8

// Client paths.
const (
	// PathDirect heartbeats went straight to the presence server over the
	// client's own connection (the paper's "original system" path).
	PathDirect Path = iota
	// PathRelayed heartbeats were forwarded through a relay agent running
	// Algorithm 1.
	PathRelayed
	// PathTrunked heartbeats were multiplexed over a shared relay-trunk
	// connection speaking hbproto batches.
	PathTrunked
)

// String implements fmt.Stringer.
func (p Path) String() string {
	switch p {
	case PathDirect:
		return "direct"
	case PathRelayed:
		return "relayed"
	case PathTrunked:
		return "trunked"
	default:
		return fmt.Sprintf("path(%d)", uint8(p))
	}
}

// EventKind tags one timeline record.
type EventKind uint8

// Event kinds.
const (
	// EvSend is a heartbeat leaving a client.
	EvSend EventKind = iota + 1
	// EvAck is the matching acknowledgement (server ack or relay
	// feedback) arriving back at the client.
	EvAck
	// EvTimeout is a heartbeat written off unacknowledged.
	EvTimeout
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvSend:
		return "send"
	case EvAck:
		return "ack"
	case EvTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Client is one row of the trace's client table. Period/Expiry/Pad are the
// values that actually went on the wire (after any speedup compression), so
// a replay reproduces the recorded workload, not the nominal app profile.
type Client struct {
	ID     string
	App    string
	Period time.Duration
	Expiry time.Duration
	Pad    int
	Path   Path
	// Relay is the relay/trunk group index for relayed and trunked
	// clients, -1 for direct ones.
	Relay int
}

// FaultWindow marks one injected fault's activity span on the trace
// timeline (relative to the recording start). To == 0 means the window
// stayed open to the end of the run.
type FaultWindow struct {
	Kind     string
	From, To time.Duration
}

// Event is one timeline record. Events are ordered by (At, Client, Seq,
// Kind); the codec delta-encodes At.
type Event struct {
	At     time.Duration
	Kind   EventKind
	Client int
	Seq    uint64
}

// Timeline is one decoded trace: everything needed to replay the recorded
// arrival schedule deterministically.
type Timeline struct {
	// Seed is the recorded run's randomness seed (fault schedule seed for
	// chaos runs); the sim replay seeds its scheduler with it.
	Seed int64
	// BaseUnixNano pins the recording start on the wall clock, for
	// provenance only — event times are offsets from it.
	BaseUnixNano int64
	// RelayPeriod and RelayCapacity parameterize the relay groups the
	// recorded run forwarded through (Algorithm 1's T and M); replays
	// rebuild their schedulers from these.
	RelayPeriod   time.Duration
	RelayCapacity int

	Clients []Client
	Faults  []FaultWindow
	Events  []Event
}

// Validate checks cross-references the codec cannot express as types.
func (tl *Timeline) Validate() error {
	if tl.RelayPeriod < 0 || tl.RelayCapacity < 0 {
		return fmt.Errorf("rec: negative relay parameters %v/%d", tl.RelayPeriod, tl.RelayCapacity)
	}
	ids := make(map[string]struct{}, len(tl.Clients))
	for i, c := range tl.Clients {
		if c.ID == "" {
			return fmt.Errorf("rec: client %d has empty ID", i)
		}
		if _, dup := ids[c.ID]; dup {
			return fmt.Errorf("rec: client %d repeats ID %s", i, c.ID)
		}
		ids[c.ID] = struct{}{}
		if c.Period < 0 || c.Expiry < 0 || c.Pad < 0 {
			return fmt.Errorf("rec: client %s has negative period/expiry/pad", c.ID)
		}
		if c.Relay < -1 {
			return fmt.Errorf("rec: client %s has relay index %d", c.ID, c.Relay)
		}
		if c.Path == PathDirect && c.Relay != -1 {
			return fmt.Errorf("rec: direct client %s bound to relay %d", c.ID, c.Relay)
		}
	}
	var prevFrom time.Duration
	for i, w := range tl.Faults {
		if w.From < prevFrom {
			return fmt.Errorf("rec: fault window %d out of order (%v after %v)", i, w.From, prevFrom)
		}
		if w.To != 0 && w.To < w.From {
			return fmt.Errorf("rec: fault window %d ends before it starts", i)
		}
		prevFrom = w.From
	}
	var prev time.Duration
	for i, e := range tl.Events {
		if e.Client < 0 || e.Client >= len(tl.Clients) {
			return fmt.Errorf("rec: event %d references client %d of %d", i, e.Client, len(tl.Clients))
		}
		if e.Kind != EvSend && e.Kind != EvAck && e.Kind != EvTimeout {
			return fmt.Errorf("rec: event %d has unknown kind %d", i, e.Kind)
		}
		if e.At < prev {
			return fmt.Errorf("rec: event %d goes back in time (%v after %v)", i, e.At, prev)
		}
		prev = e.At
	}
	return nil
}

// Sends counts EvSend events.
func (tl *Timeline) Sends() int {
	n := 0
	for _, e := range tl.Events {
		if e.Kind == EvSend {
			n++
		}
	}
	return n
}

// Coalesce is the longest recorded gap between consecutive sends of a
// relay/trunk group that still puts them in one emission.
const Coalesce = 2 * time.Millisecond

// Steps splits the sends into emissions, each in recorded order, in the
// order of their first sends: a direct client's send is one step, and a
// group's consecutive sends with recorded gaps of at most coalesce are one,
// up to RelayCapacity of them (0: no limit). It reads recorded instants
// only, so every replay of a trace, simulated or live, emits the same steps.
func (tl *Timeline) Steps(coalesce time.Duration) [][]Event {
	var steps [][]Event
	open := make(map[int]int) // group → index of its latest step
	for _, e := range tl.Events {
		if e.Kind != EvSend {
			continue
		}
		if g := tl.Clients[e.Client].Relay; g >= 0 {
			if i, ok := open[g]; ok {
				s := steps[i]
				if e.At-s[len(s)-1].At <= coalesce && (tl.RelayCapacity == 0 || len(s) < tl.RelayCapacity) {
					steps[i] = append(s, e)
					continue
				}
			}
			open[g] = len(steps)
		}
		steps = append(steps, []Event{e})
	}
	return steps
}

// Horizon returns the last event instant.
func (tl *Timeline) Horizon() time.Duration {
	if len(tl.Events) == 0 {
		return 0
	}
	return tl.Events[len(tl.Events)-1].At
}

// Digest returns a stable hex identity of the encoded timeline: equal
// digests mean bit-identical traces.
func (tl *Timeline) Digest() string {
	h := fnv.New64a()
	_, _ = h.Write(tl.Append(nil))
	return fmt.Sprintf("%016x", h.Sum64())
}

// RecordedMetrics summarizes the outcome captured in the trace itself —
// the reference column of a parity report. Ack latency pairs each EvAck
// with the latest preceding EvSend of the same (client, seq).
func (tl *Timeline) RecordedMetrics() Metrics {
	type key struct {
		client int
		seq    uint64
	}
	sent := make(map[key]time.Duration, len(tl.Events)/2)
	m := Metrics{Source: "recorded"}
	var lat sample
	for _, e := range tl.Events {
		k := key{e.Client, e.Seq}
		switch e.Kind {
		case EvSend:
			m.Sent++
			sent[k] = e.At
		case EvAck:
			// Orphan acks (send predates the recording) carry no latency
			// and are not counted as deliveries of recorded sends.
			if at, ok := sent[k]; ok {
				m.Delivered++
				lat.add(float64(e.At-at) / float64(time.Millisecond))
				delete(sent, k)
			}
		case EvTimeout:
			m.Timeouts++
			delete(sent, k)
		}
	}
	m.AckLatency = lat.quantiles()
	m.Finish()
	return m
}
