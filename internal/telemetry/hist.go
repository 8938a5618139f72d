package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram bucketing: log-linear (HDR-style). Values below histSubCount
// get exact unit buckets; above that, each power-of-two octave is split into
// histSubCount linear sub-buckets, bounding relative error to
// 1/histSubCount (~3 %). The full uint64 range fits in ~2 K buckets, so one
// histogram covers nanoscale latencies through multi-hour stalls.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits
	histMaxShift = 64 - histSubBits - 1
	histBuckets  = (histMaxShift + 2) * histSubCount
)

// bucketFor maps a value to its bucket index.
func bucketFor(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSubBits
	sub := int(v >> uint(shift)) // in [histSubCount, 2*histSubCount)
	return shift*histSubCount + sub
}

// bucketMid returns the midpoint of a bucket's value range, the estimate
// reported for any value that landed in it.
func bucketMid(idx int) uint64 {
	if idx < histSubCount {
		return uint64(idx)
	}
	shift := idx/histSubCount - 1
	sub := uint64(idx - shift*histSubCount) // in [histSubCount, 2*histSubCount)
	low := sub << uint(shift)
	return low + uint64(1)<<uint(shift)/2
}

// histShard is one independently-updated slice of a histogram. Recording
// touches only atomic counters, so any number of goroutines may share one
// shard; sharding exists purely to spread cache-line contention.
type histShard struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

func (s *histShard) record(v, n uint64) {
	s.counts[bucketFor(v)].Add(n)
	s.count.Add(n)
	s.sum.Add(v * n)
	for {
		old := s.max.Load()
		if v <= old || s.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Histogram is a lock-free sharded log-linear histogram. Obtain a Recorder
// per producer (each is bound to one shard round-robin) and call Record on
// it from any goroutine; call Snapshot at any time for quantiles. A nil
// *Histogram is a valid no-op handle, so instrumented hot paths need no
// "is telemetry enabled" branches of their own.
type Histogram struct {
	shards []*histShard
	next   atomic.Uint32
}

// NewHistogram builds a histogram with the given shard count (values < 1
// are clamped to 1).
func NewHistogram(shards int) *Histogram {
	if shards < 1 {
		shards = 1
	}
	h := &Histogram{shards: make([]*histShard, shards)}
	for i := range h.shards {
		h.shards[i] = &histShard{}
	}
	return h
}

// Recorder returns a recording handle bound to one shard. Handles are safe
// for concurrent use; handing each producer its own handle spreads shard
// load evenly. A nil histogram yields a nil (no-op) recorder.
func (h *Histogram) Recorder() *Recorder {
	if h == nil {
		return nil
	}
	n := h.next.Add(1) - 1
	return &Recorder{s: h.shards[int(n)%len(h.shards)]}
}

// Record adds one observation via an arbitrary shard; prefer per-producer
// Recorders on hot paths. Recording on a nil histogram is a no-op.
func (h *Histogram) Record(v uint64) {
	if h == nil {
		return
	}
	h.shards[v%uint64(len(h.shards))].record(v, 1)
}

// Recorder records observations into one histogram shard.
type Recorder struct {
	s *histShard
}

// Record adds one observation. Recording on a nil recorder is a no-op.
func (r *Recorder) Record(v uint64) { r.RecordN(v, 1) }

// RecordN is n calls of Record(v) at the cost of one.
func (r *Recorder) RecordN(v, n uint64) {
	if r != nil && n > 0 {
		r.s.record(v, n)
	}
}

// HistSnapshot is a point-in-time merge of every shard, safe to query while
// recording continues.
type HistSnapshot struct {
	counts []uint64
	count  uint64
	sum    uint64
	max    uint64
}

// Snapshot merges all shards into an immutable view. A nil histogram yields
// an empty snapshot.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{counts: make([]uint64, histBuckets)}
	if h == nil {
		return s
	}
	for _, sh := range h.shards {
		for i := range sh.counts {
			s.counts[i] += sh.counts[i].Load()
		}
		s.count += sh.count.Load()
		s.sum += sh.sum.Load()
		if m := sh.max.Load(); m > s.max {
			s.max = m
		}
	}
	return s
}

// Merge folds another snapshot into this one and returns the receiver.
func (s *HistSnapshot) Merge(o *HistSnapshot) *HistSnapshot {
	for i := range s.counts {
		s.counts[i] += o.counts[i]
	}
	s.count += o.count
	s.sum += o.sum
	if o.max > s.max {
		s.max = o.max
	}
	return s
}

// Count returns the number of recorded observations.
func (s *HistSnapshot) Count() uint64 { return s.count }

// Max returns the largest recorded observation.
func (s *HistSnapshot) Max() uint64 { return s.max }

// Mean returns the average observation, 0 when empty.
func (s *HistSnapshot) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.count)
}

// Quantile returns the value at or below which a fraction q of observations
// fall (bucket-midpoint estimate, clamped to the recorded max). q outside
// [0,1] is clamped; an empty snapshot returns 0.
func (s *HistSnapshot) Quantile(q float64) uint64 {
	if s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			v := bucketMid(i)
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max
}
