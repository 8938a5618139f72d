package rec

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"d2dhb/internal/trace"
)

// Recorder is the D2DR encoder of a live run's trace events: a
// trace.Tracer that collects one run's timeline from concurrently-running
// clients. All methods are safe on a nil receiver (no-ops). Events are
// buffered in memory and sorted once at snapshot time: senders on many
// goroutines emit slightly out of order, and the canonical trace order is
// by instant, not by lock-acquisition order.
type Recorder struct {
	mu      sync.Mutex
	start   time.Time
	seed    int64
	period  time.Duration
	cap     int
	clients []Client
	row     map[string]int // client ID → index into clients
	faults  []FaultWindow
	events  []Event
	sent    map[sendKey]bool // the heartbeats whose send is recorded, one per EvSend
}

// sendKey is one heartbeat of the client table.
type sendKey struct {
	client int
	seq    uint64
}

var _ trace.Tracer = (*Recorder)(nil)

// NewRecorder returns an empty recorder. Call Start before recording
// events.
func NewRecorder() *Recorder {
	return &Recorder{row: make(map[string]int), sent: make(map[sendKey]bool)}
}

// Start pins t=0 of the timeline to now and stores the run seed. A second
// call is ignored, so the recorder can be armed defensively.
func (r *Recorder) Start(now time.Time, seed int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.start.IsZero() {
		r.start = now
		r.seed = seed
	}
}

// SetRelay records the relay groups' Algorithm 1 parameters (period T,
// capacity M) so replays can rebuild their schedulers.
func (r *Recorder) SetRelay(period time.Duration, capacity int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.period, r.cap = period, capacity
	r.mu.Unlock()
}

// AddClient appends one client-table row. Emit finds it by its ID, so IDs
// must be unique (Timeline rejects a repeated one).
func (r *Recorder) AddClient(c Client) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.row[c.ID] = len(r.clients)
	r.clients = append(r.clients, c)
}

// AddFault appends one fault-window marker (times relative to Start).
func (r *Recorder) AddFault(w FaultWindow) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.faults = append(r.faults, w)
	r.mu.Unlock()
}

// Emit implements trace.Tracer for a live run, whose events carry Unix
// instants: it records heartbeat Seq of Device's client-table row at its
// offset from Start. A heartbeat's EvSend is the first of its sends that
// reached the wire, in emission order: a d2d-send, a direct-send, or a
// fallback, which is first when the relay write failed. Every ack is an
// EvAck, every write-off an EvTimeout. Other kinds, unknown devices and
// events before Start are dropped.
func (r *Recorder) Emit(ev trace.Event) {
	if r == nil {
		return
	}
	var kind EventKind
	switch ev.Kind {
	case trace.KindD2DSend, trace.KindDirectSend, trace.KindFallback:
		kind = EvSend
	case trace.KindAck:
		kind = EvAck
	case trace.KindTimeout:
		kind = EvTimeout
	default:
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.row[ev.Device]
	if !ok || r.start.IsZero() || ev.At < trace.Unix(r.start) {
		return
	}
	at := ev.At - trace.Unix(r.start)
	if kind == EvSend {
		k := sendKey{c, ev.Seq}
		if r.sent[k] {
			return
		}
		r.sent[k] = true
	}
	r.events = append(r.events, Event{At: at, Kind: kind, Client: c, Seq: ev.Seq})
}

// Timeline snapshots the recording into a canonical (sorted, validated)
// trace. The recorder stays usable afterwards.
func (r *Recorder) Timeline() (*Timeline, error) {
	if r == nil {
		return nil, fmt.Errorf("rec: nil recorder")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.start.IsZero() {
		return nil, fmt.Errorf("rec: recorder never started")
	}
	tl := &Timeline{
		Seed:          r.seed,
		BaseUnixNano:  r.start.UnixNano(),
		RelayPeriod:   r.period,
		RelayCapacity: r.cap,
		Clients:       slices.Clone(r.clients),
		Faults:        slices.Clone(r.faults),
		Events:        slices.Clone(r.events),
	}
	slices.SortFunc(tl.Events, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Client, b.Client), cmp.Compare(a.Seq, b.Seq), cmp.Compare(a.Kind, b.Kind))
	})
	slices.SortFunc(tl.Faults, func(a, b FaultWindow) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Kind, b.Kind))
	})
	if err := tl.Validate(); err != nil {
		return nil, err
	}
	return tl, nil
}
