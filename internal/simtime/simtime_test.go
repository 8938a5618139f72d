package simtime

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerStartsAtZero(t *testing.T) {
	s := NewScheduler(1)
	if got := s.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestAtRunsInTimeOrder(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for _, tc := range []struct {
		at time.Duration
		id int
	}{
		{3 * time.Second, 3},
		{1 * time.Second, 1},
		{2 * time.Second, 2},
	} {
		tc := tc
		if _, err := s.At(tc.at, func() { order = append(order, tc.id) }); err != nil {
			t.Fatalf("At(%v): %v", tc.at, err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i, id := range want {
		if order[i] != id {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", s.Now())
	}
}

func TestSimultaneousEventsFireInSchedulingOrder(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := s.At(time.Second, func() { order = append(order, i) }); err != nil {
			t.Fatalf("At: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d (full: %v)", i, got, i, order)
		}
	}
}

func TestAtRejectsPast(t *testing.T) {
	s := NewScheduler(1)
	if _, err := s.At(time.Second, func() {}); err != nil {
		t.Fatalf("At: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := s.At(500*time.Millisecond, func() {}); err == nil {
		t.Fatal("At in the past succeeded, want error")
	}
}

func TestAtRejectsNilFunc(t *testing.T) {
	s := NewScheduler(1)
	if _, err := s.At(0, nil); err == nil {
		t.Fatal("At(nil) succeeded, want error")
	}
}

func TestAfterClampsNegative(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	if _, err := s.After(-time.Second, func() { ran = true }); err != nil {
		t.Fatalf("After: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("event did not run")
	}
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

func TestStopCancelsPendingTimer(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	tm, err := s.At(time.Second, func() { ran = true })
	if err != nil {
		t.Fatalf("At: %v", err)
	}
	if !s.Stop(tm) {
		t.Fatal("Stop returned false for pending timer")
	}
	if s.Stop(tm) {
		t.Fatal("second Stop returned true")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
	if !tm.Stopped() {
		t.Fatal("timer not marked stopped")
	}
}

func TestStopFiredTimerReturnsFalse(t *testing.T) {
	s := NewScheduler(1)
	tm, err := s.At(0, func() {})
	if err != nil {
		t.Fatalf("At: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Stop(tm) {
		t.Fatal("Stop of fired timer returned true")
	}
}

func TestStopNilTimer(t *testing.T) {
	s := NewScheduler(1)
	if s.Stop(nil) {
		t.Fatal("Stop(nil) returned true")
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	s := NewScheduler(1)
	var hits []time.Duration
	var tick func()
	tick = func() {
		hits = append(hits, s.Now())
		if s.Now() < 5*time.Second {
			if _, err := s.After(time.Second, tick); err != nil {
				t.Errorf("After: %v", err)
			}
		}
	}
	if _, err := s.After(time.Second, tick); err != nil {
		t.Fatalf("After: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(hits) != 5 {
		t.Fatalf("got %d ticks, want 5: %v", len(hits), hits)
	}
}

func TestRunUntilLeavesFutureEventsQueued(t *testing.T) {
	s := NewScheduler(1)
	var ran []time.Duration
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 10 * time.Second} {
		at := at
		if _, err := s.At(at, func() { ran = append(ran, at) }); err != nil {
			t.Fatalf("At: %v", err)
		}
	}
	if err := s.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran %d events, want 2", len(ran))
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ran) != 3 {
		t.Fatalf("ran %d events after Run, want 3", len(ran))
	}
}

func TestRunUntilRejectsPastHorizon(t *testing.T) {
	s := NewScheduler(1)
	if _, err := s.At(2*time.Second, func() {}); err != nil {
		t.Fatalf("At: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.RunUntil(time.Second); err == nil {
		t.Fatal("RunUntil past horizon succeeded, want error")
	}
}

func TestStopRunInterruptsRun(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	for i := 1; i <= 10; i++ {
		i := i
		if _, err := s.At(time.Duration(i)*time.Second, func() {
			count++
			if i == 3 {
				s.StopRun()
			}
		}); err != nil {
			t.Fatalf("At: %v", err)
		}
	}
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	// Resuming drains the rest.
	if err := s.Run(); err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []int64 {
		s := NewScheduler(seed)
		var draws []int64
		var tick func()
		tick = func() {
			draws = append(draws, s.Rand().Int63n(1000))
			if len(draws) < 50 {
				if _, err := s.After(time.Duration(s.Rand().Intn(100))*time.Millisecond, tick); err != nil {
					t.Errorf("After: %v", err)
				}
			}
		}
		if _, err := s.After(0, tick); err != nil {
			t.Fatalf("After: %v", err)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return draws
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestFiredCounter(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 7; i++ {
		if _, err := s.After(time.Duration(i)*time.Millisecond, func() {}); err != nil {
			t.Fatalf("After: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", s.Fired())
	}
}

// TestQuickClockMonotonic property-checks that for any batch of event
// offsets, the observed event times are non-decreasing and the final clock
// equals the maximum offset.
func TestQuickClockMonotonic(t *testing.T) {
	prop := func(offsets []uint16) bool {
		s := NewScheduler(7)
		var seen []time.Duration
		var max time.Duration
		for _, off := range offsets {
			d := time.Duration(off) * time.Millisecond
			if d > max {
				max = d
			}
			if _, err := s.After(d, func() { seen = append(seen, s.Now()) }); err != nil {
				return false
			}
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		if len(offsets) > 0 && s.Now() != max {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStopNeverFires property-checks that stopping an arbitrary subset
// of timers prevents exactly that subset from firing.
func TestQuickStopNeverFires(t *testing.T) {
	prop := func(offsets []uint8, stopMask []bool) bool {
		s := NewScheduler(3)
		fired := make([]bool, len(offsets))
		timers := make([]*Timer, len(offsets))
		for i, off := range offsets {
			i := i
			tm, err := s.After(time.Duration(off)*time.Millisecond, func() { fired[i] = true })
			if err != nil {
				return false
			}
			timers[i] = tm
		}
		for i := range timers {
			if i < len(stopMask) && stopMask[i] {
				s.Stop(timers[i])
			}
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := range timers {
			wantStopped := i < len(stopMask) && stopMask[i]
			if fired[i] == wantStopped {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestGrowHoldsWithoutMoving: a queue grown for n events holds n events
// without growing again, and runs them in time order as ever.
func TestGrowHoldsWithoutMoving(t *testing.T) {
	const n = 100
	s := NewScheduler(1)
	s.Grow(n)
	grown := cap(s.queue)
	if grown < n {
		t.Fatalf("Grow(%d) left room for %d", n, grown)
	}
	var fired []time.Duration
	for i := range n {
		at := time.Duration((i*37)%n) * time.Second
		if _, err := s.At(at, func() { fired = append(fired, s.Now()) }); err != nil {
			t.Fatal(err)
		}
	}
	if cap(s.queue) != grown {
		t.Fatalf("queue grew from %d to %d for %d events", grown, cap(s.queue), n)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("event %d fired at %v after %v", i, fired[i], fired[i-1])
		}
	}
}
