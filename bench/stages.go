package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"d2dhb/internal/rec"
	"d2dhb/internal/trace"
)

// Stage event kinds, in the order one relayed heartbeat meets them.
const (
	evSend = iota
	evCollect
	evFlush
	evDelivery
	evAck
)

// stageEvent is one stamped step of a heartbeat's journey. Client and Seq
// key send, collect, delivery and ack; a flush carries only its relay and
// Algorithm 1's reason, and covers every heartbeat that relay collected
// since its previous flush.
type stageEvent struct {
	At     time.Duration
	Kind   int
	Client string
	Seq    uint64
	Relay  string
	Reason string
}

// stampTracer is the benchmark's trace.Tracer: it stamps the benchmark's
// own clock on every collect, flush and delivery event the live stack emits
// and keeps them in memory.
type stampTracer struct {
	mu     sync.Mutex
	stamps []stamp
}

type stamp struct {
	at time.Time
	ev trace.Event
}

// Emit implements trace.Tracer. It is called from relay run loops and
// server connection goroutines concurrently.
func (t *stampTracer) Emit(ev trace.Event) {
	switch ev.Kind {
	case trace.KindCollect, trace.KindFlush, trace.KindDelivery:
	default:
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.stamps = append(t.stamps, stamp{at: now, ev: ev})
	t.mu.Unlock()
}

// stageEvents merges the recorder's send/ack timeline with the tracer's
// stamps onto one clock. Recorder offsets are relative to its start
// instant, stamps to the wall clock; both streams keep their own monotonic
// deltas and are aligned once, through the recorder's wall-clock base.
func stageEvents(tl *rec.Timeline, tr *stampTracer) []stageEvent {
	base := time.Unix(0, tl.BaseUnixNano)
	out := make([]stageEvent, 0, len(tl.Events)+len(tr.stamps))
	for _, e := range tl.Events {
		kind := evSend
		switch e.Kind {
		case rec.EvSend:
		case rec.EvAck:
			kind = evAck
		default:
			continue
		}
		out = append(out, stageEvent{At: e.At, Kind: kind, Client: tl.Clients[e.Client].ID, Seq: e.Seq})
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.stamps {
		e := stageEvent{At: s.at.Sub(base), Seq: s.ev.Seq}
		switch s.ev.Kind {
		case trace.KindCollect:
			e.Kind, e.Client, e.Relay = evCollect, s.ev.Peer, s.ev.Device
		case trace.KindFlush:
			e.Kind, e.Relay, e.Reason = evFlush, s.ev.Device, s.ev.Reason
		case trace.KindDelivery:
			e.Kind, e.Client = evDelivery, s.ev.Device
		}
		out = append(out, e)
	}
	return out
}

// stageStats summarizes one stage's latency sample.
type stageStats struct {
	N        int
	P50, P99 float64 // milliseconds
}

// stageBudget is the heartbeat stage budget: where a heartbeat's time went
// between the UE's send and the UE's ack, measured from outside the
// program.
type stageBudget struct {
	SendToCollect   stageStats // UE write → relay admits it to Algorithm 1
	CollectToFlush  stageStats // Algorithm 1's deliberate hold
	FlushToDelivery stageStats // batch write → presence update at the server
	DeliveryToAck   stageStats // server ack (→ relay feedback fan-out) → UE
	Heartbeats      int        // heartbeats with a send stamp
	DuplicateAcks   int        // acks after the first for one heartbeat
	Skewed          int        // stage samples whose stamps were out of order (clamped to 0)
	FlushReasons    map[string]int
}

type hbKey struct {
	client string
	seq    uint64
}

// joinStages joins events by (client, seq). A heartbeat with no collect
// stamp travelled without a relay (direct, or on a trunk whose own write is
// the batch flush): its send stands in for the flush, so its uplink time
// lands in flush_to_delivery and the two relay stages get no sample.
func joinStages(events []stageEvent) *stageBudget {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Kind < events[j].Kind
	})
	const unset = time.Duration(-1)
	type times [5]time.Duration
	hbs := make(map[hbKey]*times)
	at := func(k hbKey) *times {
		t := hbs[k]
		if t == nil {
			t = &times{unset, unset, unset, unset, unset}
			hbs[k] = t
		}
		return t
	}
	b := &stageBudget{FlushReasons: make(map[string]int)}
	held := make(map[string][]hbKey) // relay → collected, not yet flushed
	for _, e := range events {
		k := hbKey{e.Client, e.Seq}
		switch e.Kind {
		case evFlush:
			for _, h := range held[e.Relay] {
				at(h)[evFlush] = e.At
			}
			held[e.Relay] = held[e.Relay][:0]
			b.FlushReasons[e.Reason]++
		case evCollect:
			at(k)[evCollect] = e.At
			held[e.Relay] = append(held[e.Relay], k)
		case evAck:
			if at(k)[evAck] != unset {
				b.DuplicateAcks++
				continue
			}
			at(k)[evAck] = e.At
		default: // send, delivery: the first stamp wins (a fallback resend delivers twice)
			if at(k)[e.Kind] == unset {
				at(k)[e.Kind] = e.At
			}
		}
	}
	var s2c, c2f, f2d, d2a []float64
	add := func(dst *[]float64, from, to time.Duration) {
		if from == unset || to == unset {
			return
		}
		d := to - from
		if d < 0 {
			b.Skewed++
			d = 0
		}
		*dst = append(*dst, float64(d)/float64(time.Millisecond))
	}
	for _, t := range hbs {
		if t[evSend] == unset {
			continue
		}
		b.Heartbeats++
		flush := t[evFlush]
		if t[evCollect] == unset {
			flush = t[evSend]
		} else {
			add(&s2c, t[evSend], t[evCollect])
			add(&c2f, t[evCollect], t[evFlush])
		}
		add(&f2d, flush, t[evDelivery])
		add(&d2a, t[evDelivery], t[evAck])
	}
	stat := func(xs []float64) stageStats {
		sort.Float64s(xs)
		return stageStats{N: len(xs), P50: sortedQuantile(xs, 0.50), P99: sortedQuantile(xs, 0.99)}
	}
	b.SendToCollect, b.CollectToFlush = stat(s2c), stat(c2f)
	b.FlushToDelivery, b.DeliveryToAck = stat(f2d), stat(d2a)
	return b
}

func (b *stageBudget) write(w io.Writer) {
	fmt.Fprintf(w, "stage budget: %d heartbeats, %d duplicate acks, %d out-of-order stamp pairs clamped to 0\n",
		b.Heartbeats, b.DuplicateAcks, b.Skewed)
	row := func(name string, s stageStats) {
		fmt.Fprintf(w, "stage %-24s p50 %10.3f ms  p99 %10.3f ms  n=%d\n", name, s.P50, s.P99, s.N)
	}
	row("stage.send_to_collect", b.SendToCollect)
	row("stage.collect_to_flush", b.CollectToFlush)
	row("stage.flush_to_delivery", b.FlushToDelivery)
	row("stage.delivery_to_ack", b.DeliveryToAck)
	for _, r := range sortedKeys(b.FlushReasons) {
		fmt.Fprintf(w, "stage flushes by reason %-12s %d\n", r, b.FlushReasons[r])
	}
}

func (b *stageBudget) metrics(vals map[string]float64) {
	for name, s := range map[string]stageStats{
		"stage.send_to_collect": b.SendToCollect, "stage.collect_to_flush": b.CollectToFlush,
		"stage.flush_to_delivery": b.FlushToDelivery, "stage.delivery_to_ack": b.DeliveryToAck,
	} {
		vals[name+"_p50_ms"], vals[name+"_p99_ms"] = s.P50, s.P99
	}
}
