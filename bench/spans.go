package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into the program.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"startNs"` // since the log's base instant
	EndNs    int64  `json:"endNs"`
}

// spanLog keeps spans in memory until the benchmark ends. A nil or
// disabled log records nothing, so untraced runs pay one branch per call.
type spanLog struct {
	workload string
	base     time.Time

	mu    sync.Mutex
	spans []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, base: time.Now()}
}

// begin opens a span under parent and returns its id (-1 on a nil log).
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Workload: l.workload,
		StartNs: int64(time.Since(l.base)), EndNs: -1,
	})
	return id
}

// end closes the span.
func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	now := int64(time.Since(l.base))
	l.mu.Lock()
	l.spans[id].EndNs = now
	l.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (l *spanLog) snapshot() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (concurrent calls) and are clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// writeSpanTree prints the span tree with total and self times.
func writeSpanTree(w io.Writer, spans []span) {
	self := selfTimes(spans)
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var walk func(parent, depth int)
	walk = func(parent, depth int) {
		for _, s := range children[parent] {
			fmt.Fprintf(w, "span %*s%-*s total %9.3f ms  self %9.3f ms\n",
				2*depth, "", 28-2*depth, s.Name,
				float64(s.EndNs-s.StartNs)/1e6, float64(self[s.ID])/1e6)
			walk(s.ID, depth+1)
		}
	}
	walk(-1, 0)
}
