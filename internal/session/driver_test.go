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
// instant. Each step takes a while, so a second runner would show. The
// units run at the paper's 270 s period, and every step due before the run
// ends is taken, no more.
func TestDriverOneRunner(t *testing.T) {
	timed(t, func(t *testing.T) {
		const units = 50
		var (
			grain  = 10 * time.Millisecond
			period = 270 * time.Second
			run    = 45*time.Minute + 30*time.Second
		)
		d := NewDriver(grain)
		var in, most, steps atomic.Int32
		start := time.Now()
		due := int32(0) // steps due before the run ends
		for i := range units {
			period := period * time.Duration(1+i%3)
			first := period * time.Duration(i%4) / 4
			due += int32((run-first-1)/period) + 1
			d.Add(&testUnit{step: func(now time.Time) (time.Time, bool) {
				n := in.Add(1)
				for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
				}
				steps.Add(1)
				// A spin would never see the clock move; while the step
				// sleeps, a second runner would step beside it.
				time.Sleep(50 * time.Microsecond)
				in.Add(-1)
				return now.Add(period), true
			}}, start.Add(first))
		}
		time.Sleep(run)
		d.Stop()
		if n := steps.Load(); n != due {
			t.Fatalf("%d steps of %d units in %v, want exactly %d", n, units, run, due)
		}
		if m := most.Load(); m != 1 {
			t.Errorf("%d steps ran at once; non-blocking steps need one runner", m)
		}
	})
}

// TestDriverHelpsWhenBehind: a few units whose every step blocks for three
// grains must not hold up the rest. Every other unit still steps within two
// grains of the instant it asked for, because the monitor starts helper
// runners behind the blocked steps.
func TestDriverHelpsWhenBehind(t *testing.T) {
	timed(t, func(t *testing.T) {
		const (
			slow = 3
			fast = 20
		)
		grain := 10 * time.Millisecond
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
		// The run ends between two instants, not on one.
		run := 16*grain + grain/2
		time.Sleep(run)
		d.Stop()
		mu.Lock()
		defer mu.Unlock()
		t.Logf("%d fast steps, the latest %v after its instant", fastSteps, worst)
		if want := fast * 6; fastSteps != want {
			t.Fatalf("%d fast steps in %v, want exactly %d", fastSteps, run, want)
		}
		// The monitor steps in a grain after the instant, exactly then.
		if worst > grain {
			t.Errorf("a unit stepped %v after its instant behind steps blocked for %v, want ≤ %v", worst, 3*grain, grain)
		}
	})
}

// TestDriverSweepsBlockedUnit: a unit blocked inside its own step is swept
// at the lapse of its earliest ack window, in its step's place. The window
// is open as the step begins (the paper's 300 s expiry plus 5 s after the
// send), or the step opens it (a heartbeat tracked 156 s into a slow
// register write, its window lapsing at 200 s).
func TestDriverSweepsBlockedUnit(t *testing.T) {
	grain := 10 * time.Millisecond
	for _, c := range []struct {
		name           string
		tracked, lapse time.Duration // after the step begins
	}{
		{"in flight as the step begins", 0, 305 * time.Second},
		{"tracked inside the step", 156 * time.Second, 200 * time.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			timed(t, func(t *testing.T) {
				d := NewDriver(grain)
				release := make(chan struct{})
				swept := make(chan time.Time, 1)
				start := time.Now()
				lapse := start.Add(c.lapse)
				var mu sync.Mutex
				inFlight := c.tracked == 0
				d.Add(&testUnit{
					step: func(now time.Time) (time.Time, bool) {
						if c.tracked > 0 {
							time.Sleep(time.Until(start.Add(c.tracked)))
							mu.Lock()
							inFlight = true
							mu.Unlock()
						}
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
					if late := at.Sub(lapse); late != 0 {
						t.Errorf("swept %v after the window lapsed, want at the lapse itself", late)
					}
				case <-time.After(time.Hour):
					t.Fatal("a unit blocked in its step was never swept")
				}
			})
		})
	}
}

// TestDriverWaitsForRetiredUnits: Wait returns once every unit has
// retired, and a retired unit is never stepped again.
func TestDriverWaitsForRetiredUnits(t *testing.T) {
	timed(t, func(t *testing.T) {
		d := NewDriver(10 * time.Millisecond)
		defer d.Stop()
		var steps atomic.Int32
		start := time.Now()
		period := 270 * time.Second
		for i := range 5 {
			left := i + 1
			d.Add(&testUnit{step: func(now time.Time) (time.Time, bool) {
				steps.Add(1)
				left--
				return now.Add(period), left > 0
			}}, start)
		}
		d.Wait()
		if n := steps.Load(); n != 1+2+3+4+5 {
			t.Fatalf("%d steps, want 15", n)
		}
		if at, want := time.Since(start), 4*period; at != want {
			t.Fatalf("the last unit retired %v after the start, want %v", at, want)
		}
		time.Sleep(2 * period)
		if n := steps.Load(); n != 15 {
			t.Fatalf("%d steps after every unit retired, want 15", n)
		}
	})
}
