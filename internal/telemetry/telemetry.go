// Package telemetry is the stdlib-only live-metrics layer of the real
// heartbeat stack: a registry of named (and optionally labeled) counters,
// gauges and log-bucketed histograms with lock-free hot-path updates,
// rendered over HTTP as an aligned text table (/metrics), a typed JSON dump
// (/metrics.json) and the net/http/pprof endpoints.
//
// The package is deliberately clock-free: it never reads the wall clock and
// is covered by the d2dvet walltime rule. Callers record whatever they
// measured — wall-clock microseconds in the real stack, virtual-clock
// durations in simulation-clocked packages — so attaching telemetry can
// never couple a deterministic simulation to the host clock.
//
// Handles returned by a Registry are plain atomics; a nil handle (the state
// of an uninstrumented component) is a valid no-op, so hot paths carry no
// "is telemetry enabled" branches beyond the nil check inside each update.
package telemetry

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"d2dhb/internal/metrics"
)

// Label is one key=value dimension attached to a metric name.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates metric types.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing metric. Updates are single atomic
// adds; a nil *Counter is a valid no-op handle.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Adding on a nil counter is a no-op.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-or-adjust metric. A nil *Gauge is a valid no-op handle.
type Gauge struct{ v atomic.Int64 }

// Set stores v. Setting a nil gauge is a no-op.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta. Adjusting a nil gauge is a no-op.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// entry is one registered metric.
type entry struct {
	name    string
	labels  []Label
	kind    Kind
	unit    string
	counter *Counter
	gauge   *Gauge
	fn      func() float64 // a counter's or gauge's value, sampled at dump time
	hist    *Histogram
}

// key is the registry identity: name plus sorted labels.
func entryKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortLabels normalizes label order so identity and rendering are stable.
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	slices.SortFunc(out, func(a, b Label) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// Registry holds named metrics. Registration (get-or-create, of the entry
// and of its handle) takes a lock; the returned handles update without one.
// Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// lookup get-or-creates the entry, panicking on a kind clash: two call
// sites disagreeing about what a metric name means is a programming error
// no fallback can paper over.
func (r *Registry) lookup(name string, kind Kind, unit string, labels []Label) *entry {
	labels = sortLabels(labels)
	key := entryKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %v, was %v", name, kind, e.kind))
		}
		return e
	}
	e := &entry{name: name, labels: labels, kind: kind, unit: unit}
	r.entries[key] = e
	return e
}

// Counter returns the counter registered under name+labels, creating it on
// first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	e := r.lookup(name, KindCounter, "", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.counter == nil {
		e.counter = &Counter{}
	}
	return e.counter
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	e := r.lookup(name, KindGauge, "", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.gauge == nil {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// GaugeFunc registers (or rebinds) a gauge sampled by calling fn at dump
// time. Use it for values that already live elsewhere — map sizes, shard
// occupancy — instead of mirroring them on every update. fn runs outside
// the registry lock and must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	r.bind(r.lookup(name, KindGauge, "", labels), fn)
}

// CounterFunc is GaugeFunc for a counter: fn must never decrease. Use it to
// export a count its owner keeps anyway, such as a Stats field, instead of
// counting every event twice.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...Label) {
	r.bind(r.lookup(name, KindCounter, "", labels), fn)
}

func (r *Registry) bind(e *entry, fn func() float64) {
	r.mu.Lock()
	e.fn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram registered under name+labels, creating it
// with the given shard count on first use. unit names the recorded values
// ("us", "msgs") and is carried through dumps unchanged.
func (r *Registry) Histogram(name, unit string, shards int, labels ...Label) *Histogram {
	e := r.lookup(name, KindHistogram, unit, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.hist == nil {
		e.hist = NewHistogram(shards)
	}
	return e.hist
}

// Observe registers (or rebinds) an existing histogram under name+labels —
// the adoption path for components that already own a Histogram, like the
// load generator's latency recorders.
func (r *Registry) Observe(name, unit string, h *Histogram, labels ...Label) {
	e := r.lookup(name, KindHistogram, unit, labels)
	r.mu.Lock()
	e.unit = unit
	e.hist = h
	r.mu.Unlock()
}

// HistDump summarizes one histogram in a dump, in the histogram's unit.
type HistDump struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
	P999  uint64  `json:"p999"`
	Max   uint64  `json:"max"`
}

// Metric is one metric in a dump. Value carries counter and gauge readings;
// Hist carries histogram summaries.
type Metric struct {
	Name   string    `json:"name"`
	Labels []Label   `json:"labels,omitempty"`
	Kind   string    `json:"kind"`
	Unit   string    `json:"unit,omitempty"`
	Value  float64   `json:"value"`
	Hist   *HistDump `json:"hist,omitempty"`
}

// Dump is a point-in-time snapshot of a whole registry — the schema of the
// /metrics.json endpoint.
type Dump struct {
	Metrics []Metric `json:"metrics"`
}

// Find returns the first metric with the given name (and, when given, all
// of the given labels), or nil.
func (d *Dump) Find(name string, labels ...Label) *Metric {
	if d == nil {
		return nil
	}
next:
	for i := range d.Metrics {
		m := &d.Metrics[i]
		if m.Name != name {
			continue
		}
		for _, want := range labels {
			found := false
			for _, l := range m.Labels {
				if l == want {
					found = true
					break
				}
			}
			if !found {
				continue next
			}
		}
		return m
	}
	return nil
}

// Dump snapshots every registered metric, sorted by name then labels.
// Gauge functions are evaluated outside the registry lock, so they may take
// their own locks freely.
func (r *Registry) Dump() Dump {
	r.mu.Lock()
	es := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		es = append(es, e)
	}
	r.mu.Unlock()
	slices.SortFunc(es, func(a, b *entry) int {
		if c := cmp.Compare(a.name, b.name); c != 0 {
			return c
		}
		return cmp.Compare(entryKey(a.name, a.labels), entryKey(b.name, b.labels))
	})
	d := Dump{Metrics: make([]Metric, 0, len(es))}
	for _, e := range es {
		m := Metric{Name: e.name, Labels: e.labels, Kind: e.kind.String(), Unit: e.unit}
		switch e.kind {
		case KindCounter, KindGauge:
			switch {
			case e.fn != nil:
				m.Value = e.fn()
			case e.kind == KindCounter:
				m.Value = float64(e.counter.Value())
			default:
				m.Value = float64(e.gauge.Value())
			}
		case KindHistogram:
			s := e.hist.Snapshot()
			m.Hist = &HistDump{
				Count: s.Count(),
				Mean:  s.Mean(),
				P50:   s.Quantile(0.50),
				P95:   s.Quantile(0.95),
				P99:   s.Quantile(0.99),
				P999:  s.Quantile(0.999),
				Max:   s.Max(),
			}
		}
		d.Metrics = append(d.Metrics, m)
	}
	return d
}

// labelString renders labels as "k=v,k=v" for the text table.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, 0, len(labels))
	for _, l := range labels {
		parts = append(parts, l.Key+"="+l.Value)
	}
	return strings.Join(parts, ",")
}

// Table renders the dump as an aligned text table — the /metrics body.
// Counters and gauges fill the value column; histograms fill count, mean
// and the quantile columns in their unit.
func (d Dump) Table() *metrics.Table {
	t := metrics.NewTable("telemetry",
		"metric", "labels", "kind", "value", "unit", "count", "mean", "p50", "p95", "p99", "max")
	for _, m := range d.Metrics {
		if m.Hist != nil {
			t.AddRow(m.Name, labelString(m.Labels), m.Kind, "", m.Unit,
				fmt.Sprintf("%d", m.Hist.Count), metrics.F(m.Hist.Mean),
				fmt.Sprintf("%d", m.Hist.P50), fmt.Sprintf("%d", m.Hist.P95),
				fmt.Sprintf("%d", m.Hist.P99), fmt.Sprintf("%d", m.Hist.Max))
			continue
		}
		t.AddRow(m.Name, labelString(m.Labels), m.Kind, metrics.F(m.Value), m.Unit)
	}
	return t
}
