package telemetry

import (
	"sync"
	"testing"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 0 {
		t.Fatalf("nil gauge value = %d, want 0", got)
	}
	var h *Histogram
	h.Record(42)
	if got := h.Snapshot().Count(); got != 0 {
		t.Fatalf("nil histogram count = %d, want 0", got)
	}
	var rec *Recorder
	rec.Record(42)
	if h.Recorder() != nil {
		t.Fatal("nil histogram returned a non-nil recorder")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("hits", L("path", "direct"))
	b := reg.Counter("hits", L("path", "direct"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	if c := reg.Counter("hits", L("path", "relay")); c == a {
		t.Fatal("different labels shared a counter")
	}
	if c := reg.Counter("hits"); c == a {
		t.Fatal("unlabeled and labeled metrics shared a counter")
	}
}

func TestRegistryLabelOrderIrrelevant(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("m", L("a", "1"), L("b", "2"))
	b := reg.Counter("m", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order changed metric identity")
	}
}

func TestKindClashPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("m")
}

// TestGaugeFuncSampledAtDump: a gauge function, or a counter function, is
// read at every dump and dumped under its own kind.
func TestGaugeFuncSampledAtDump(t *testing.T) {
	for _, kind := range []Kind{KindGauge, KindCounter} {
		reg := NewRegistry()
		v := 1.5
		register := reg.GaugeFunc
		if kind == KindCounter {
			register = reg.CounterFunc
		}
		register("fn", func() float64 { return v })
		if m := dumpOf(reg).Find("fn"); m.Value != 1.5 || m.Kind != kind.String() {
			t.Fatalf("%v func dumped %+v, want 1.5", kind, m)
		}
		v = 7
		if got := dumpOf(reg).Find("fn").Value; got != 7 {
			t.Fatalf("%v func dumped %v after update, want 7", kind, got)
		}
	}
}

func TestObserveAdoptsHistogram(t *testing.T) {
	reg := NewRegistry()
	h := NewHistogram(1)
	h.Record(10)
	reg.Observe("lat", "us", h)
	m := dumpOf(reg).Find("lat")
	if m == nil || m.Hist == nil {
		t.Fatal("adopted histogram missing from dump")
	}
	if m.Hist.Count != 1 {
		t.Fatalf("adopted histogram count = %d, want 1", m.Hist.Count)
	}
	if m.Unit != "us" {
		t.Fatalf("adopted histogram unit = %q, want us", m.Unit)
	}
}

func TestDumpSortedAndFind(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zz")
	reg.Gauge("aa").Set(4)
	reg.Counter("mm", L("k", "b"))
	reg.Counter("mm", L("k", "a")).Add(9)
	d := reg.Dump()
	names := make([]string, 0, len(d.Metrics))
	for _, m := range d.Metrics {
		names = append(names, entryKey(m.Name, m.Labels))
	}
	want := []string{"aa", "mm\x00k=a", "mm\x00k=b", "zz"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("dump order %q, want %q", names, want)
		}
	}
	if m := d.Find("mm", L("k", "a")); m == nil || m.Value != 9 {
		t.Fatalf("Find(mm,k=a) = %+v, want value 9", m)
	}
	if d.Find("mm", L("k", "c")) != nil {
		t.Fatal("Find matched a label that was never registered")
	}
	if m := d.Find("aa"); m == nil || m.Value != 4 {
		t.Fatalf("Find(aa) = %+v, want value 4", m)
	}
}

// TestConcurrentRegistration exercises get-or-create and updates from many
// goroutines; run under -race this pins the lock-free hot-path contract.
func TestConcurrentRegistration(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("shared").Inc()
				reg.Gauge("g").Set(int64(i))
				reg.Histogram("h", "us", 4).Record(uint64(i))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("lost counter increments: %d, want %d", got, workers*perWorker)
	}
	if got := dumpOf(reg).Find("h").Hist.Count; got != workers*perWorker {
		t.Fatalf("lost histogram records: %d, want %d", got, workers*perWorker)
	}
}

// dumpOf is a test shim: Dump.Find has a pointer receiver, so chained
// reg.Dump().Find(...) calls need an addressable value.
func dumpOf(reg *Registry) *Dump {
	d := reg.Dump()
	return &d
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewRegistry().Histogram("h", "us", 8)
	b.RunParallel(func(pb *testing.PB) {
		v := uint64(0)
		for pb.Next() {
			v++
			h.Record(v)
		}
	})
}

func BenchmarkNilHistogramRecord(b *testing.B) {
	var h *Histogram
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Record(1)
		}
	})
}
