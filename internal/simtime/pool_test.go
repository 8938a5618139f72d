package simtime

import (
	"testing"
	"time"
)

// TestStopReleasesFn pins the free-list contract that motivated it: a
// cancelled timer must not keep its closure — and everything the closure
// captured — reachable until the caller happens to drop the handle.
func TestStopReleasesFn(t *testing.T) {
	s := NewScheduler(1)
	big := make([]byte, 1<<20)
	tm, err := s.At(time.Second, func() { _ = big[0] })
	if err != nil {
		t.Fatalf("At: %v", err)
	}
	if tm.fn == nil {
		t.Fatal("pending timer lost its fn")
	}
	if !s.Stop(tm) {
		t.Fatal("Stop returned false for pending timer")
	}
	if tm.fn != nil {
		t.Fatal("stopped timer still pins its event closure")
	}
}

// TestFiredTimerReleasesFn checks the same for the fire path.
func TestFiredTimerReleasesFn(t *testing.T) {
	s := NewScheduler(1)
	tm, err := s.At(0, func() {})
	if err != nil {
		t.Fatalf("At: %v", err)
	}
	if !s.Step() {
		t.Fatal("Step fired nothing")
	}
	if tm.fn != nil {
		t.Fatal("fired timer still pins its event closure")
	}
}

// TestTimerRecycledAfterFire verifies the free list actually recycles: the
// next At after a fire reuses the fired Timer's allocation.
func TestTimerRecycledAfterFire(t *testing.T) {
	s := NewScheduler(1)
	t1, err := s.At(0, func() {})
	if err != nil {
		t.Fatalf("At: %v", err)
	}
	s.Run()
	t2, err := s.At(time.Second, func() {})
	if err != nil {
		t.Fatalf("At: %v", err)
	}
	if t1 != t2 {
		t.Fatal("fired timer was not recycled by the next At")
	}
	if t2.Stopped() || t2.At() != time.Second {
		t.Fatalf("recycled timer state dirty: stopped=%v at=%v", t2.Stopped(), t2.At())
	}
}

// TestTimerRecycledAfterStop verifies the stop path feeds the pool too.
func TestTimerRecycledAfterStop(t *testing.T) {
	s := NewScheduler(1)
	t1, err := s.At(time.Second, func() {})
	if err != nil {
		t.Fatalf("At: %v", err)
	}
	s.Stop(t1)
	t2, err := s.At(2*time.Second, func() {})
	if err != nil {
		t.Fatalf("At: %v", err)
	}
	if t1 != t2 {
		t.Fatal("stopped timer was not recycled by the next At")
	}
	if t2.Stopped() {
		t.Fatal("recycled timer still marked stopped")
	}
}

// TestSelfReschedulingReusesTimer covers the dominant simulation pattern —
// an event that schedules its successor from inside its own callback. The
// successor is scheduled before the fired timer is recycled (recycling waits
// for the callback to return, which is what makes the pattern safe), so the
// chain ping-pongs between exactly two Timer allocations regardless of length.
func TestSelfReschedulingReusesTimer(t *testing.T) {
	s := NewScheduler(1)
	distinct := make(map[*Timer]bool)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 50 {
			tm, err := s.After(time.Millisecond, tick)
			if err != nil {
				t.Errorf("After: %v", err)
				return
			}
			distinct[tm] = true
		}
	}
	first, err := s.After(time.Millisecond, tick)
	if err != nil {
		t.Fatalf("After: %v", err)
	}
	distinct[first] = true
	s.Run()
	if n != 50 {
		t.Fatalf("fired %d ticks, want 50", n)
	}
	if len(distinct) > 2 {
		t.Fatalf("50-tick chain used %d distinct Timers, want at most 2", len(distinct))
	}
}

// TestSteadyStateZeroAlloc asserts the headline property: once the pool is
// primed, the fire-and-reschedule steady state performs no heap allocation.
func TestSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler(1)
	noop := func() {}
	// Prime the pool and the queue slice.
	if _, err := s.After(time.Millisecond, noop); err != nil {
		t.Fatalf("After: %v", err)
	}
	s.Step()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.After(time.Millisecond, noop); err != nil {
			t.Error(err)
			return
		}
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady state allocates %.1f objects per event, want 0", allocs)
	}
}

// TestStopAndRearmZeroAlloc covers the second hot pattern: cancelling a
// pending timer and arming a replacement (RRC inactivity tail, relay flush
// deadline) must run allocation-free from the pool.
func TestStopAndRearmZeroAlloc(t *testing.T) {
	s := NewScheduler(1)
	noop := func() {}
	pending, err := s.After(time.Hour, noop)
	if err != nil {
		t.Fatalf("After: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.Stop(pending)
		pending, err = s.After(time.Hour, noop)
		if err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("stop+rearm allocates %.1f objects per cycle, want 0", allocs)
	}
}
