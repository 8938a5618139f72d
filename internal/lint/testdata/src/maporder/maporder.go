// Package maporder exercises the maporder analyzer: map iteration whose
// body feeds an ordered sink — directly, through a helper (call-graph
// propagation), or into a digest — is flagged; collect-sort-range, slice
// iteration, sinkless loops and goroutine bodies are not.
package maporder

import (
	"hash/fnv"
	"sort"
	"time"

	"d2dhb/internal/rec"
	"d2dhb/internal/trace"
)

// emitOne is an ordered sink by propagation: it emits a trace event.
func emitOne(tr trace.Tracer, dev string) {
	trace.Emit(tr, trace.Event{Device: dev, Kind: trace.KindGenerated})
}

// emitTwice propagates one level further.
func emitTwice(tr trace.Tracer, dev string) {
	emitOne(tr, dev)
	emitOne(tr, dev)
}

func directEmit(tr trace.Tracer, devs map[string]bool) {
	for dev := range devs { // want `map iteration order is nondeterministic but this loop emits a trace event`
		trace.Emit(tr, trace.Event{Device: dev, Kind: trace.KindGenerated})
	}
}

func propagatedEmit(tr trace.Tracer, devs map[string]bool) {
	for dev := range devs { // want `calls golden.test/maporder.emitTwice, which`
		emitTwice(tr, dev)
	}
}

func recordTimeouts(r *rec.Recorder, pending map[uint64]int64, now time.Time) {
	for seq := range pending { // want `records a trace event`
		r.Emit(trace.Event{At: trace.Unix(now), Device: "ue", Kind: trace.KindTimeout, Seq: seq})
	}
}

func digestFeed(weights map[string]int) uint64 {
	h := fnv.New64a()
	for k := range weights { // want `feeds a digest`
		h.Write([]byte(k))
	}
	return h.Sum64()
}

// sortedEmit is the canonical fix: collect, sort, then range the slice.
func sortedEmit(tr trace.Tracer, devs map[string]bool) {
	keys := make([]string, 0, len(devs))
	for dev := range devs {
		keys = append(keys, dev)
	}
	sort.Strings(keys)
	for _, dev := range keys {
		trace.Emit(tr, trace.Event{Device: dev, Kind: trace.KindGenerated})
	}
}

// counters only aggregates; nothing ordered happens inside the loop.
func counters(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// spawned goroutines emit on their own schedule, not the loop's.
func goBody(tr trace.Tracer, devs map[string]bool, done chan struct{}) {
	for dev := range devs {
		go func(d string) {
			emitOne(tr, d)
			done <- struct{}{}
		}(dev)
	}
}

// suppressed documents a deliberate exception.
func suppressed(tr trace.Tracer, devs map[string]bool) {
	//lint:allow maporder debug dump only, never diffed or digested
	for dev := range devs {
		emitOne(tr, dev)
	}
}
