package telemetry

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestBucketRoundTripError(t *testing.T) {
	// The log-linear layout bounds relative error to 1/histSubCount.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := uint64(rng.Int63n(1 << 40))
		mid := bucketMid(bucketFor(v))
		diff := float64(mid) - float64(v)
		if diff < 0 {
			diff = -diff
		}
		if v >= histSubCount && diff > float64(v)/histSubCount {
			t.Fatalf("v=%d mid=%d: error %v exceeds bound", v, mid, diff)
		}
		if v < histSubCount && mid != v {
			t.Fatalf("small value %d not exact (mid %d)", v, mid)
		}
	}
}

func TestBucketMonotonic(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<16; v++ {
		b := bucketFor(v)
		if b < prev {
			t.Fatalf("bucketFor(%d)=%d < previous %d", v, b, prev)
		}
		if b >= histBuckets {
			t.Fatalf("bucketFor(%d)=%d out of range", v, b)
		}
		prev = b
	}
	if b := bucketFor(1<<63 + 12345); b >= histBuckets {
		t.Fatalf("max-range bucket %d out of range %d", b, histBuckets)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(4)
	rec := h.Recorder()
	// Uniform 1..10000: p50 ≈ 5000, p99 ≈ 9900 within bucket error.
	for v := uint64(1); v <= 10000; v++ {
		rec.Record(v)
	}
	s := h.Snapshot()
	if s.Count() != 10000 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Max() != 10000 {
		t.Fatalf("max = %d", s.Max())
	}
	check := func(q, want, tol float64) {
		got := float64(s.Quantile(q))
		if got < want-tol || got > want+tol {
			t.Errorf("q%v = %v, want %v ± %v", q, got, want, tol)
		}
	}
	check(0.50, 5000, 5000/float64(histSubCount)+1)
	check(0.95, 9500, 9500/float64(histSubCount)+1)
	check(0.99, 9900, 9900/float64(histSubCount)+1)
	if got := s.Quantile(1); got != 10000 {
		t.Errorf("q1 = %d, want exact max", got)
	}
	if mean := s.Mean(); mean < 4900 || mean > 5100 {
		t.Errorf("mean = %v", mean)
	}
}

func TestHistogramEmptyAndClamp(t *testing.T) {
	h := NewHistogram(0) // clamped to 1 shard
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Count() != 0 || s.Mean() != 0 {
		t.Fatal("empty snapshot not zero")
	}
	h.Record(7)
	s = h.Snapshot()
	if s.Quantile(-1) != 7 || s.Quantile(2) != 7 {
		t.Fatal("q clamping broken")
	}
}

func TestHistogramConcurrentRecorders(t *testing.T) {
	h := NewHistogram(8)
	const goroutines, per = 16, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		rec := h.Recorder()
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				rec.Record(uint64(rng.Int63n(1 << 20)))
			}
		}(int64(g))
	}
	wg.Wait()
	if got := h.Snapshot().Count(); got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(2), NewHistogram(2)
	for v := uint64(1); v <= 100; v++ {
		a.Record(v)
		b.Record(v * 1000)
	}
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count() != 200 {
		t.Fatalf("merged count = %d", m.Count())
	}
	if m.Max() != 100000 {
		t.Fatalf("merged max = %d", m.Max())
	}
}

// TestHistogramRecordHugeValue: a value of 2⁶³ or more picks its shard
// without turning the index negative.
func TestHistogramRecordHugeValue(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		h := NewHistogram(shards)
		h.Record(math.MaxUint64)
		h.Record(1 << 63)
		if s := h.Snapshot(); s.Count() != 2 || s.Max() != math.MaxUint64 {
			t.Fatalf("%d shards: count %d max %d after two huge values", shards, s.Count(), s.Max())
		}
	}
}

// TestRecordNMatchesRecord: RecordN(v, n) leaves the snapshot n calls of
// Record(v) leave — count, sum, max and every quantile — and n = 0 or a
// nil recorder records nothing.
func TestRecordNMatchesRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	one, many := NewHistogram(1), NewHistogram(1)
	r1, rn := one.Recorder(), many.Recorder()
	for i := 0; i < 200; i++ {
		v, n := uint64(rng.Int63n(1<<30)), uint64(rng.Intn(5))
		for j := uint64(0); j < n; j++ {
			r1.Record(v)
		}
		rn.RecordN(v, n)
	}
	rn.RecordN(1<<40, 0) // larger than any draw: must not become the max
	(*Recorder)(nil).RecordN(5, 5)
	a, b := one.Snapshot(), many.Snapshot()
	if a.Count() != b.Count() || a.Mean() != b.Mean() || a.Max() != b.Max() {
		t.Fatalf("RecordN: count %d mean %v max %d, Record: count %d mean %v max %d",
			b.Count(), b.Mean(), b.Max(), a.Count(), a.Mean(), a.Max())
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q%v: RecordN %d, Record %d", q, b.Quantile(q), a.Quantile(q))
		}
	}
}
