// Package simtime provides a deterministic discrete-event simulation kernel.
//
// A Scheduler owns a virtual clock and an event queue. Events scheduled for
// the same instant fire in scheduling order, which — together with a seeded
// random source — makes every simulation run reproducible.
//
// The event queue is an inlined 4-ary min-heap of *Timer ordered by
// (instant, scheduling sequence), and fired or stopped Timers are recycled
// through a free list, so the steady state of a simulation — events firing
// and scheduling successors — performs no heap allocation and no interface
// dispatch. See the Timer type for the handle-lifetime rule this implies.
package simtime

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// Timer is a handle to a scheduled event. A Timer is owned by the Scheduler
// that created it and must not be shared across schedulers.
//
// A handle is live from At/After until its event fires or Stop returns
// true; the scheduler then recycles the Timer for a future event, so a
// retained stale handle may alias a different live event. Holders must
// therefore drop (nil out) stored handles when the event callback runs or
// immediately after stopping them, and must not call Stop, At or Stopped
// through a handle kept past that point.
type Timer struct {
	at      time.Duration
	seq     uint64
	index   int // position in the heap, -1 when fired or stopped
	fn      func()
	stopped bool
	next    *Timer // free-list link while recycled
}

// At reports the virtual instant the timer fires at.
func (t *Timer) At() time.Duration { return t.at }

// Stopped reports whether the timer was cancelled before firing.
func (t *Timer) Stopped() bool { return t.stopped }

// Scheduler is a single-threaded discrete-event scheduler with a virtual
// clock that starts at zero. It is not safe for concurrent use; the entire
// simulation runs on the caller's goroutine.
type Scheduler struct {
	now   time.Duration
	seq   uint64
	queue []*Timer // 4-ary min-heap ordered by (at, seq)
	free  *Timer   // recycled timers, linked through Timer.next
	rng   *rand.Rand
	fired uint64
}

// NewScheduler returns a scheduler whose random source is seeded with seed.
// The same seed always yields the same event interleaving and random draws.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time (elapsed since simulation start).
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand exposes the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Fired reports how many events have executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending reports how many events are queued.
func (s *Scheduler) Pending() int { return len(s.queue) }

// Grow makes room for n more queued events, so a caller that knows how
// many it will hold at once schedules them without growing the queue.
func (s *Scheduler) Grow(n int) { s.queue = slices.Grow(s.queue, n) }

// At schedules fn to run at the absolute virtual instant at. Scheduling in
// the past (before Now) is rejected with an error: in a discrete-event model
// there is no way to execute an event at an instant that has already been
// processed.
func (s *Scheduler) At(at time.Duration, fn func()) (*Timer, error) {
	if fn == nil {
		return nil, errors.New("simtime: nil event function")
	}
	if at < s.now {
		return nil, fmt.Errorf("simtime: schedule at %v is before now %v", at, s.now)
	}
	t := s.free
	if t != nil {
		s.free = t.next
		t.next = nil
		t.stopped = false
	} else {
		t = &Timer{}
	}
	t.at = at
	t.seq = s.seq
	t.fn = fn
	s.seq++
	s.push(t)
	return t, nil
}

// After schedules fn to run d after the current virtual time. Negative d is
// treated as zero so callers can pass computed deltas without clamping.
func (s *Scheduler) After(d time.Duration, fn func()) (*Timer, error) {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Stop cancels a pending timer. It returns true if the timer was pending and
// is now cancelled, false if it already fired or was already stopped. A
// cancelled timer's event function is released immediately — a stopped Timer
// no longer pins its closure or anything the closure captured — and the
// Timer is recycled, so the handle is dead once Stop returns true.
func (s *Scheduler) Stop(t *Timer) bool {
	if t == nil || t.stopped || t.index < 0 {
		return false
	}
	s.remove(t.index)
	t.stopped = true
	t.fn = nil
	t.next = s.free
	s.free = t
	return true
}

// Step executes the next pending event, advancing the clock to its instant.
// It returns false when the queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	t := s.popMin()
	s.now = t.at
	s.fired++
	fn := t.fn
	t.fn = nil
	fn()
	// Recycle only after the callback returns: during fn the fired handle
	// is inert (index -1, nil fn) but cannot yet alias a new event, so the
	// self-rescheduling pattern `h = sched.After(...)` inside h's own
	// callback stays safe.
	t.next = s.free
	s.free = t
	return true
}

// Run executes events until the queue drains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events whose instant is <= horizon, then advances the
// clock to horizon exactly. Events scheduled beyond the horizon remain
// queued. A horizon before Now is rejected with an error.
func (s *Scheduler) RunUntil(horizon time.Duration) error {
	if horizon < s.now {
		return fmt.Errorf("simtime: horizon %v is before now %v", horizon, s.now)
	}
	for len(s.queue) > 0 && s.queue[0].at <= horizon {
		s.Step()
	}
	s.now = horizon
	return nil
}

// NextAt reports the instant of the earliest queued event, or false when
// the queue is empty. It lets a windowed driver (TileGroup) decide whether
// the next event belongs to the current synchronization window without
// executing it.
func (s *Scheduler) NextAt() (time.Duration, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// AdvanceTo moves the clock forward to t without executing any event. It
// is the window-boundary primitive: a tile that has drained its events
// strictly before a boundary jumps its clock to the boundary so every
// tile agrees on "now" when cross-tile state is exchanged. Advancing past
// a queued event is rejected — that would silently skip it.
func (s *Scheduler) AdvanceTo(t time.Duration) error {
	if t < s.now {
		return fmt.Errorf("simtime: advance to %v is before now %v", t, s.now)
	}
	if len(s.queue) > 0 && s.queue[0].at < t {
		return fmt.Errorf("simtime: advance to %v would skip event at %v", t, s.queue[0].at)
	}
	s.now = t
	return nil
}

// The event queue is a 4-ary min-heap laid out in a slice: children of node
// i live at 4i+1..4i+4. Compared with the binary container/heap it halves
// the tree depth, replaces interface dispatch with direct calls and keeps
// sift loops branch-cheap — (at, seq) is a strict total order, so any heap
// arity yields the same pop sequence.
const heapArity = 4

// less orders timers by instant, then scheduling sequence.
func less(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends t and restores the heap property.
func (s *Scheduler) push(t *Timer) {
	t.index = len(s.queue)
	s.queue = append(s.queue, t)
	s.siftUp(t.index)
}

// popMin removes and returns the earliest timer.
func (s *Scheduler) popMin() *Timer {
	q := s.queue
	t := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	s.queue = q[:n]
	if n > 0 {
		last.index = 0
		s.queue[0] = last
		s.siftDown(0)
	}
	t.index = -1
	return t
}

// remove deletes the timer at heap position i.
func (s *Scheduler) remove(i int) {
	q := s.queue
	n := len(q) - 1
	t := q[i]
	last := q[n]
	q[n] = nil
	s.queue = q[:n]
	if i != n {
		last.index = i
		s.queue[i] = last
		if !s.siftDown(i) {
			s.siftUp(i)
		}
	}
	t.index = -1
}

// siftUp moves the timer at position i toward the root until its parent is
// not later than it.
func (s *Scheduler) siftUp(i int) {
	q := s.queue
	t := q[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !less(t, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = t
	t.index = i
}

// siftDown moves the timer at position i toward the leaves, reporting
// whether it moved at all.
func (s *Scheduler) siftDown(i int) bool {
	q := s.queue
	n := len(q)
	t := q[i]
	start := i
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(q[c], q[min]) {
				min = c
			}
		}
		if !less(q[min], t) {
			break
		}
		q[i] = q[min]
		q[i].index = i
		i = min
	}
	q[i] = t
	t.index = i
	return i != start
}
