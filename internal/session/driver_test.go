package session

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testUnit is a Unit made of functions; a nil lapse reports nothing in
// flight, a nil sweep does nothing.
type testUnit struct {
	step  func(now time.Time) (time.Time, bool)
	sweep func(now time.Time)
	lapse func() (time.Time, bool)
}

func (u *testUnit) Step(now time.Time) (time.Time, bool) { return u.step(now) }

func (u *testUnit) Sweep(now time.Time) {
	if u.sweep != nil {
		u.sweep(now)
	}
}

func (u *testUnit) Lapse() (time.Time, bool) {
	if u.lapse == nil {
		return time.Time{}, false
	}
	return u.lapse()
}

// TestDriverOneRunner: with steps that never block, one runner does all
// the work — no two steps ever overlap, however many units are due at one
// instant. Each step computes for a while, so a second runner would show.
// The grain is far longer than the periods, so that a runner descheduled
// on a busy machine does not pass for a blocked one.
func TestDriverOneRunner(t *testing.T) {
	const (
		grain  = 200 * time.Millisecond
		units  = 50
		period = 5 * time.Millisecond
		run    = 300 * time.Millisecond
	)
	d := NewDriver(grain)
	var in, most, steps atomic.Int32
	start := time.Now()
	for i := range units {
		period := period * time.Duration(1+i%3)
		d.Add(&testUnit{step: func(now time.Time) (time.Time, bool) {
			n := in.Add(1)
			for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
			}
			steps.Add(1)
			for time.Since(now) < 50*time.Microsecond {
			}
			in.Add(-1)
			return now.Add(period), true
		}}, start.Add(period*time.Duration(i%4)/4))
	}
	time.Sleep(run)
	d.Stop()
	if n := steps.Load(); n < units*10 {
		t.Fatalf("%d steps of %d units in %v, want ≥ %d", n, units, run, units*10)
	}
	if m := most.Load(); m != 1 {
		t.Errorf("%d steps ran at once; non-blocking steps need one runner", m)
	}
}

// TestDriverHelpsWhenBehind: a few units whose every step blocks for three
// grains must not hold up the rest. Every other unit still steps within two
// grains of the instant it asked for, because the monitor starts helper
// runners behind the blocked steps.
func TestDriverHelpsWhenBehind(t *testing.T) {
	const (
		grain = 40 * time.Millisecond
		slow  = 3
		fast  = 20
	)
	d := NewDriver(grain)
	var mu sync.Mutex
	var worst time.Duration
	var fastSteps int
	start := time.Now()
	// The slow units come first: they win the ties at every shared instant.
	for range slow {
		d.Add(&testUnit{step: func(now time.Time) (time.Time, bool) {
			time.Sleep(3 * grain)
			return now.Add(4 * grain), true
		}}, start)
	}
	for range fast {
		due := start
		d.Add(&testUnit{step: func(now time.Time) (time.Time, bool) {
			mu.Lock()
			worst = max(worst, now.Sub(due))
			fastSteps++
			mu.Unlock()
			due = now.Add(2 * grain)
			return due, true
		}}, start)
	}
	time.Sleep(16 * grain)
	d.Stop()
	mu.Lock()
	defer mu.Unlock()
	t.Logf("%d fast steps, the latest %v after its instant", fastSteps, worst)
	if fastSteps < fast*4 {
		t.Fatalf("%d fast steps in %v, want ≥ %d", fastSteps, 16*grain, fast*4)
	}
	if worst > 2*grain {
		t.Errorf("a unit stepped %v after its instant behind steps blocked for %v, want ≤ %v", worst, 3*grain, 2*grain)
	}
}

// TestDriverSweepsBlockedUnit: a unit blocked inside its own step is swept
// once its earliest ack window lapses, in its step's place.
func TestDriverSweepsBlockedUnit(t *testing.T) {
	const grain = 20 * time.Millisecond
	d := NewDriver(grain)
	release := make(chan struct{})
	swept := make(chan time.Time, 1)
	start := time.Now()
	lapse := start.Add(5 * grain)
	var mu sync.Mutex
	inFlight := true
	d.Add(&testUnit{
		step: func(now time.Time) (time.Time, bool) {
			<-release
			return now.Add(time.Hour), true
		},
		sweep: func(now time.Time) {
			mu.Lock()
			inFlight = false
			mu.Unlock()
			swept <- now
		},
		lapse: func() (time.Time, bool) {
			mu.Lock()
			defer mu.Unlock()
			return lapse, inFlight
		},
	}, start)
	defer d.Stop()
	defer close(release)
	select {
	case at := <-swept:
		if at.Before(lapse) {
			t.Errorf("swept %v before the window lapsed", lapse.Sub(at))
		}
		if late := at.Sub(lapse); late > 3*grain {
			t.Errorf("swept %v after the window lapsed, want ≤ %v", late, 3*grain)
		}
	case <-time.After(50 * grain):
		t.Fatal("a unit blocked in its step was never swept")
	}
}

// TestDriverWaitsForRetiredUnits: Wait returns once every unit has
// retired, and a retired unit is never stepped again.
func TestDriverWaitsForRetiredUnits(t *testing.T) {
	d := NewDriver(10 * time.Millisecond)
	defer d.Stop()
	var steps atomic.Int32
	start := time.Now()
	for i := range 5 {
		left := i + 1
		d.Add(&testUnit{step: func(now time.Time) (time.Time, bool) {
			steps.Add(1)
			left--
			return now.Add(time.Millisecond), left > 0
		}}, start)
	}
	d.Wait()
	if n := steps.Load(); n != 1+2+3+4+5 {
		t.Fatalf("%d steps, want 15", n)
	}
	time.Sleep(20 * time.Millisecond)
	if n := steps.Load(); n != 15 {
		t.Fatalf("%d steps after every unit retired, want 15", n)
	}
}
