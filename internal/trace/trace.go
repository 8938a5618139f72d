// Package trace defines the one heartbeat event record of a run, simulated
// or live: every load-bearing action (heartbeat generation, D2D forward,
// collection, flush, feedback, fallback, delivery, write-off) is one Event,
// emitted once into one Tracer. The JSONL writer here encodes it as one JSON
// line; internal/rec's Recorder encodes a live run's sends, acks and
// write-offs as a D2DR timeline.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Kind labels one event type. The constants below are the whole set; the
// zero Kind is no kind, and it or any value past the last constant fails
// to encode, so no event can add a kind the offline analyzers never saw.
type Kind uint8

// Event kinds emitted by the framework.
const (
	KindGenerated   Kind = iota + 1 // UE produced a heartbeat
	KindD2DSend                     // UE forwarded over D2D
	KindD2DFail                     // D2D transfer failed
	KindRelayBusy                   // relay advertised a closed window
	KindDirectSend                  // UE sent straight over cellular
	KindFallback                    // feedback timeout → duplicate send
	KindAck                         // UE's heartbeat acknowledged (Reason = ReasonServerAck when not by feedback)
	KindTimeout                     // UE wrote a heartbeat off unacknowledged
	KindMatch                       // UE connected to a relay
	KindMatchFail                   // discovery found no usable relay
	KindCollect                     // relay accepted a forwarded heartbeat
	KindReject                      // relay refused (closed/expired)
	KindFlush                       // relay transmitted a batch
	KindDelivery                    // heartbeat observed at the network
	KindConnDrop                    // server dropped a connection (protocol error, idle timeout)
	KindStop                        // device stopped
	KindFault                       // faultnet injected one fault (Reason = fault kind)
	KindFaultWindow                 // a scheduled fault window opened (Reason = fault kind)
)

// kindNames are the kinds' JSONL names.
var kindNames = [...]string{
	KindGenerated:   "hb-generated",
	KindD2DSend:     "d2d-send",
	KindD2DFail:     "d2d-fail",
	KindRelayBusy:   "relay-busy",
	KindDirectSend:  "direct-send",
	KindFallback:    "fallback",
	KindAck:         "ack",
	KindTimeout:     "timeout",
	KindMatch:       "match",
	KindMatchFail:   "match-fail",
	KindCollect:     "collect",
	KindReject:      "reject",
	KindFlush:       "flush",
	KindDelivery:    "delivery",
	KindConnDrop:    "conn-drop",
	KindStop:        "stop",
	KindFault:       "fault",
	KindFaultWindow: "fault-window",
}

// String implements fmt.Stringer: the kind's JSONL name.
func (k Kind) String() string {
	if k >= KindGenerated && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText implements encoding.TextMarshaler: the kind's JSONL name. The
// zero Kind and values past the last constant are errors.
func (k Kind) MarshalText() ([]byte, error) {
	if k < KindGenerated || int(k) >= len(kindNames) {
		return nil, fmt.Errorf("trace: unknown event kind %d", uint8(k))
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText implements encoding.TextUnmarshaler: it accepts only the
// JSONL name of a kind.
func (k *Kind) UnmarshalText(name []byte) error {
	for i := KindGenerated; int(i) < len(kindNames); i++ {
		if kindNames[i] == string(name) {
			*k = i
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", name)
}

// ReasonServerAck is the Reason of a KindAck the server's own ack gave: the
// heartbeat went (or fell back) straight to the server. An ack without it
// is the relay's feedback.
const ReasonServerAck = "server"

// Event is one trace record. Zero-valued optional fields are omitted from
// the JSON encoding, which carries At in whole milliseconds as "atMs".
type Event struct {
	// At is the exact instant: virtual time since the start in the
	// simulator, time since the Unix epoch (Unix) on the live stack.
	At time.Duration `json:"-"`
	// Device is the acting device.
	Device string `json:"device"`
	// Kind labels the action.
	Kind Kind `json:"kind"`
	// App and Seq identify the heartbeat involved, if any.
	App string `json:"app,omitempty"`
	Seq uint64 `json:"seq,omitempty"`
	// Peer is the other device involved (relay for a forward, source for
	// a collection).
	Peer string `json:"peer,omitempty"`
	// N is a count (batch size for a flush).
	N int `json:"n,omitempty"`
	// Reason annotates rejections, flush triggers, failures and server acks.
	Reason string `json:"reason,omitempty"`
	// OnTime reports delivery punctuality.
	OnTime bool `json:"onTime,omitempty"`
}

// Tracer consumes events. Implementations must be safe for use from a
// single simulation goroutine; the JSONL writer additionally locks so the
// real-time stack can share one.
type Tracer interface {
	Emit(ev Event)
}

// Emit sends ev to tr if tr is non-nil; call sites stay one-liners.
func Emit(tr Tracer, ev Event) {
	if tr != nil {
		tr.Emit(ev)
	}
}

// Unix is a live instant as an Event's At: time since the Unix epoch.
func Unix(t time.Time) time.Duration { return time.Duration(t.UnixNano()) }

// jsonEvent is an Event's JSON: At in whole milliseconds, first, then the
// fields of eventFields, which is Event without its JSON methods.
type jsonEvent struct {
	AtMs int64 `json:"atMs"`
	eventFields
}

type eventFields Event

// MarshalJSON implements json.Marshaler.
func (ev Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonEvent{ev.At.Milliseconds(), eventFields(ev)})
}

// UnmarshalJSON decodes what MarshalJSON wrote, at millisecond precision.
func (ev *Event) UnmarshalJSON(raw []byte) error {
	var w jsonEvent
	if err := json.Unmarshal(raw, &w); err != nil {
		return err
	}
	*ev = Event(w.eventFields)
	ev.At = time.Duration(w.AtMs) * time.Millisecond
	return nil
}

// JSONL writes one JSON object per line.
type JSONL struct {
	mu   sync.Mutex
	enc  *json.Encoder
	errs int
	n    int
}

var _ Tracer = (*JSONL)(nil)

// NewJSONL builds a JSONL tracer over w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Emit implements Tracer.
func (j *JSONL) Emit(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.enc.Encode(ev); err != nil {
		j.errs++
		return
	}
	j.n++
}

// Counts returns how many events were written and how many failed to
// encode.
func (j *JSONL) Counts() (written, failed int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n, j.errs
}

// Recorder buffers events in memory for tests and analysis.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

var _ Tracer = (*Recorder)(nil)

// Emit implements Tracer.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

// Events returns a copy of everything recorded.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// ByKind returns the recorded events of one kind.
func (r *Recorder) ByKind(k Kind) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// String summarizes the recording as kind counts.
func (r *Recorder) String() string {
	counts := make(map[Kind]int)
	for _, ev := range r.Events() {
		counts[ev.Kind]++
	}
	return fmt.Sprintf("%v", counts)
}
