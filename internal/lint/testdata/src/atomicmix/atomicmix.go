// Package atomicmix exercises the atomicmix analyzer: every package-level
// sync/atomic function is the pointer API through which a field can be
// touched atomically in one place and plainly in another, so each
// reference to one is a finding at the reference. The typed atomics'
// methods are fine.
package atomicmix

import "sync/atomic"

// stats mixes atomic and plain access on hits — the data race the
// analyzer exists for — while misses stays consistently atomic. Both go
// through the pointer API, so both are flagged at their calls.
type stats struct {
	hits   uint64
	misses uint64
}

func (s *stats) hit() {
	atomic.AddUint64(&s.hits, 1) // want `atomic\.AddUint64 is the pointer API of sync/atomic`
}

func (s *stats) miss() {
	atomic.AddUint64(&s.misses, 1) // want `atomic\.AddUint64 is the pointer API`
}

func (s *stats) snapshot() (uint64, uint64) {
	h := s.hits
	m := atomic.LoadUint64(&s.misses) // want `atomic\.LoadUint64 is the pointer API`
	return h, m
}

func (s *stats) reset() {
	s.hits = 0
	atomic.StoreUint64(&s.misses, 0) // want `atomic\.StoreUint64 is the pointer API`
}

// bump holds a pointer-API function as a value; calling it later mixes
// just the same.
var bump = atomic.AddInt64 // want `atomic\.AddInt64 is the pointer API`

// typedCounter is the project standard: the typed API makes the mix
// impossible, so the analyzer ignores it.
type typedCounter struct {
	n atomic.Uint64
}

func (c *typedCounter) inc() { c.n.Add(1) }

func (c *typedCounter) read() uint64 { return c.n.Load() }

// plainOnly never touches sync/atomic; mutex-guarded plain access is a
// different analyzer's business.
type plainOnly struct {
	n int
}

func (p *plainOnly) bump() { p.n++ }

// suppressed documents a deliberate use of the pointer API.
type suppressed struct {
	n uint64
}

func (s *suppressed) inc() {
	atomic.AddUint64(&s.n, 1) //lint:allow atomicmix the counter is shared with code that predates the typed atomics
}
