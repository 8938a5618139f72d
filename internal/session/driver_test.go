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
// On the wall clock the grain is far longer than the periods, so that a
// runner descheduled on a busy machine does not pass for a blocked one; in
// the bubble the units run at the paper's 270 s period, and every step due
// before the run ends is taken, no more.
func TestDriverOneRunner(t *testing.T) {
	timed(t, func(t *testing.T) {
		const units = 50
		var (
			grain  = pick(200*time.Millisecond, 10*time.Millisecond)
			period = pick(5*time.Millisecond, 270*time.Second)
			run    = pick(300*time.Millisecond, 45*time.Minute+30*time.Second)
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
				busy(50 * time.Microsecond)
				in.Add(-1)
				return now.Add(period), true
			}}, start.Add(first))
		}
		time.Sleep(run)
		d.Stop()
		if n, want := steps.Load(), pick(int32(units*10), due); !reached(n, want) {
			t.Fatalf("%d steps of %d units in %v, want %s %d", n, units, run, pick("≥", "exactly"), want)
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
		grain := pick(40*time.Millisecond, 10*time.Millisecond)
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
		// In the bubble the run ends between two instants, not on one.
		run := pick(16*grain, 16*grain+grain/2)
		time.Sleep(run)
		d.Stop()
		mu.Lock()
		defer mu.Unlock()
		t.Logf("%d fast steps, the latest %v after its instant", fastSteps, worst)
		if want := pick(fast*4, fast*6); !reached(fastSteps, want) {
			t.Fatalf("%d fast steps in %v, want %s %d", fastSteps, run, pick("≥", "exactly"), want)
		}
		// The monitor steps in a grain after the instant: in the bubble,
		// exactly then.
		if limit := pick(2*grain, grain); worst > limit {
			t.Errorf("a unit stepped %v after its instant behind steps blocked for %v, want ≤ %v", worst, 3*grain, limit)
		}
	})
}

// TestDriverSweepsBlockedUnit: a unit blocked inside its own step is swept
// once its earliest ack window lapses, in its step's place: on the wall
// clock within three grains of it, in the bubble at the lapse itself. The
// window is open as the step begins (in the bubble the paper's 300 s expiry
// plus 5 s after the send), or the step opens it once it has blocked for
// two grains (in the bubble a heartbeat tracked 156 s into a slow register
// write, its window lapsing at 200 s).
func TestDriverSweepsBlockedUnit(t *testing.T) {
	grain := pick(20*time.Millisecond, 10*time.Millisecond)
	for _, c := range []struct {
		name           string
		tracked, lapse time.Duration // after the step begins
	}{
		{"in flight as the step begins", 0, pick(5*grain, 305*time.Second)},
		{"tracked inside the step", pick(2*grain, 156*time.Second), pick(5*grain, 200*time.Second)},
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
					if at.Before(lapse) {
						t.Errorf("swept %v before the window lapsed", lapse.Sub(at))
					}
					if late, want := at.Sub(lapse), pick(3*grain, 0); late > want {
						t.Errorf("swept %v after the window lapsed, want ≤ %v", late, want)
					}
				case <-time.After(pick(50*grain, time.Hour)):
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
		period := pick(time.Millisecond, 270*time.Second)
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
		if at, want := time.Since(start), pick(time.Duration(0), 4*period); bubble && at != want {
			t.Fatalf("the last unit retired %v after the start, want %v", at, want)
		}
		time.Sleep(pick(20*time.Millisecond, 2*period))
		if n := steps.Load(); n != 15 {
			t.Fatalf("%d steps after every unit retired, want 15", n)
		}
	})
}
