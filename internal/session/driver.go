package session

import (
	"sync"
	"time"
)

// Unit is one independently scheduled sender a Driver runs: a UE, a trunk
// multiplexing many users, or a replayed one. The unit owns its schedule;
// the driver keeps only the instant it asked to be stepped at.
type Unit interface {
	// Step does the unit's work due at now — apply its loss policy, send
	// what is due — and returns when it next has work. more false retires
	// the unit.
	Step(now time.Time) (next time.Time, more bool)
	// Sweep applies the unit's loss policy at now. The driver calls it
	// beside a Step blocked past Lapse, so it must be safe to run then.
	Sweep(now time.Time)
	// Lapse returns when the earliest ack window in flight closes; ok is
	// false when nothing is in flight, or when the unit sweeps only in its
	// own Step.
	Lapse() (at time.Time, ok bool)
}

// Driver is the one clock of the live clients: a heap of units keyed by
// each unit's next instant, worked through by one long-lived runner
// goroutine, so a fleet of periodic senders costs one wake-up per instant
// that has work rather than a goroutine and a timer per sender.
//
// A step blocked on the network must not hold up the others. A runner arms
// the driver's monitor timer once per turn (from waking up to finding
// nothing due), not once per step. Once a unit has waited a grain past its
// instant with every runner inside a step, the monitor starts a helper
// runner; helpers exit when nothing is due, so runners scale with the
// steps that block (a long stall, or many short ones) and fall back to
// one. And once a unit has been inside its Step for a grain, the monitor
// sweeps it each time its earliest ack window lapses, in the blocked
// step's place.
//
// Step is never called on one unit from two runners at once; Sweep may run
// beside it.
type Driver struct {
	grain time.Duration
	epoch time.Time // instants are kept as nanoseconds since epoch

	mu       sync.Mutex
	units    []Unit
	queue    []due      // units waiting for their instant: a min-heap by (at, unit)
	stepping []stepping // units inside Step
	alive    int        // runner goroutines
	left     int        // units not yet retired
	stopped  bool
	mon      *time.Timer
	monAt    int64 // the monitor's deadline; 0 when disarmed

	kick    chan struct{} // wakes the idle runner: an earlier unit, or Stop
	stop    chan struct{} // closed by Stop
	retired chan struct{} // closed once every added unit has retired
	runners sync.WaitGroup
}

// due is a unit waiting for its instant.
type due struct {
	at int64
	u  int32
}

func (a due) before(b due) bool { return a.at < b.at || a.at == b.at && a.u < b.u }

// stepping is a unit inside Step, and when its step began.
type stepping struct {
	u     int32
	began int64
}

// NewDriver returns a driver with no unit, its runner waiting for one.
// grain is how long a step may block, and due work wait behind it, before
// the monitor steps in.
func NewDriver(grain time.Duration) *Driver {
	d := &Driver{
		grain: grain, epoch: time.Now(), alive: 1,
		kick: make(chan struct{}, 1), stop: make(chan struct{}), retired: make(chan struct{}),
	}
	d.runners.Add(1)
	go d.run(false)
	return d
}

func (d *Driver) since(t time.Time) int64 { return int64(t.Sub(d.epoch)) }

// Add schedules u's first step at the given instant. Adding to a stopped
// driver does nothing.
func (d *Driver) Add(u Unit, first time.Time) {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	e := due{at: d.since(first), u: int32(len(d.units))}
	d.units = append(d.units, u)
	d.left++
	d.push(e)
	top := d.queue[0] == e
	d.arm(d.watch(d.since(time.Now())))
	d.mu.Unlock()
	if top {
		select {
		case d.kick <- struct{}{}:
		default:
		}
	}
}

// Wait returns once every unit added so far has retired, or the driver
// has stopped.
func (d *Driver) Wait() {
	d.mu.Lock()
	left, retired := d.left, d.retired
	d.mu.Unlock()
	if left == 0 {
		return
	}
	select {
	case <-retired:
	case <-d.stop:
	}
}

// Stop ends the driver: no step starts after it, and it returns once the
// steps under way and the monitor's sweeps have returned. Units still
// scheduled are dropped. The caller must not hold a lock a step takes.
// Stop is idempotent.
func (d *Driver) Stop() {
	d.mu.Lock()
	if !d.stopped {
		d.stopped = true
		close(d.stop)
		if d.mon != nil {
			d.mon.Stop()
		}
	}
	d.mu.Unlock()
	d.runners.Wait()
}

// run is a runner: it steps every unit whose instant has come, one at a
// time, and then sleeps until the next one — the long-lived runner — or
// exits — a helper. Its turn, from waking to finding nothing due, arms the
// monitor as it begins and as it ends.
func (d *Driver) run(helper bool) {
	defer d.runners.Done()
	var sleep *time.Timer
	turn := false
	d.mu.Lock()
	for !d.stopped {
		t := time.Now()
		now := d.since(t)
		if len(d.queue) > 0 && d.queue[0].at <= now {
			e := d.pop()
			u := d.units[e.u]
			d.stepping = append(d.stepping, stepping{u: e.u, began: now})
			if !turn {
				turn = true
				d.arm(d.watch(now))
			}
			d.mu.Unlock()
			next, more := u.Step(t)
			d.mu.Lock()
			d.stepped(e.u, next, more)
			continue
		}
		turn = false
		if helper {
			break
		}
		d.arm(d.watch(now)) // disarms unless a step is still under way
		var wake <-chan time.Time
		if len(d.queue) > 0 {
			wait := time.Duration(d.queue[0].at - now)
			if sleep == nil {
				sleep = time.NewTimer(wait)
			} else {
				sleep.Reset(wait)
			}
			wake = sleep.C
		}
		d.mu.Unlock()
		select {
		case <-wake:
		case <-d.kick:
			if sleep != nil && !sleep.Stop() {
				select {
				case <-sleep.C:
				default:
				}
			}
		case <-d.stop:
		}
		d.mu.Lock()
	}
	d.alive--
	if !d.stopped {
		d.arm(d.watch(d.since(time.Now()))) // a helper leaves: the steps it leaves behind stay watched
	}
	d.mu.Unlock()
	if sleep != nil {
		sleep.Stop()
	}
}

// stepped takes unit u back from a runner whose Step returned (d.mu held).
func (d *Driver) stepped(u int32, next time.Time, more bool) {
	for i := range d.stepping {
		if d.stepping[i].u == u {
			last := len(d.stepping) - 1
			d.stepping[i] = d.stepping[last]
			d.stepping = d.stepping[:last]
			break
		}
	}
	switch {
	case !more:
		if d.left--; d.left == 0 {
			close(d.retired)
			d.retired = make(chan struct{})
		}
	case !d.stopped:
		d.push(due{at: d.since(next), u: u})
	}
}

// watch returns when the monitor next has something to check at or after
// now, 0 for nothing (d.mu held): the instant a step under way will have
// run for a grain, and — with every runner inside a step — the instant the
// first waiting unit will have waited one.
func (d *Driver) watch(now int64) int64 {
	g := int64(d.grain)
	at := int64(0)
	soonest := func(t int64) {
		if at == 0 || t < at {
			at = t
		}
	}
	for _, s := range d.stepping {
		if s.began+g > now {
			soonest(s.began + g)
		}
	}
	if len(d.stepping) > 0 && len(d.queue) > 0 && d.alive == len(d.stepping) {
		soonest(max(d.queue[0].at+g, now))
	}
	return at
}

// arm points the monitor at the instant at, unless it is armed earlier
// already; at 0 disarms it (d.mu held).
func (d *Driver) arm(at int64) {
	switch {
	case at == 0:
		if d.monAt != 0 {
			d.mon.Stop()
			d.monAt = 0
		}
	case d.monAt != 0 && d.monAt <= at: // armed sooner already
	case d.mon == nil:
		d.mon, d.monAt = time.AfterFunc(time.Duration(at-d.since(time.Now())), d.monitor), at
	default:
		d.mon.Reset(time.Duration(at - d.since(time.Now())))
		d.monAt = at
	}
}

// monitor is the driver's timer: it starts a helper runner when due work
// waits a grain behind steps under way, sweeps the blocked units whose
// earliest ack window has lapsed, and re-arms itself for as long as a
// step is under way.
func (d *Driver) monitor() {
	t := time.Now()
	now := d.since(t)
	d.mu.Lock()
	d.monAt = 0
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.runners.Add(1) // Stop waits for the sweeps below
	defer d.runners.Done()
	var blocked []Unit
	for _, s := range d.stepping {
		if now-s.began >= int64(d.grain) {
			blocked = append(blocked, d.units[s.u])
		}
	}
	if d.alive == len(d.stepping) && len(d.queue) > 0 && now-d.queue[0].at >= int64(d.grain) {
		d.alive++
		d.runners.Add(1)
		go d.run(true)
	}
	d.mu.Unlock()

	var lapse int64 // the next lapse of a blocked unit; 0 for none
	for _, u := range blocked {
		at, ok := u.Lapse()
		if ok && !at.After(t) {
			u.Sweep(t)
			at, ok = u.Lapse()
		}
		if ok {
			next := max(d.since(at), now+int64(d.grain)/4)
			if lapse == 0 || next < lapse {
				lapse = next
			}
		}
	}

	d.mu.Lock()
	if !d.stopped {
		next := d.watch(d.since(time.Now()))
		if lapse != 0 && len(d.stepping) > 0 && (next == 0 || lapse < next) {
			next = lapse
		}
		if next != 0 {
			d.arm(next)
		}
	}
	d.mu.Unlock()
}

// push adds e to the queue (d.mu held).
func (d *Driver) push(e due) {
	q := append(d.queue, e)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	d.queue = q
}

// pop removes and returns the queue's first unit (d.mu held).
func (d *Driver) pop() due {
	q := d.queue
	top, last := q[0], len(q)-1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	d.queue = q
	return top
}
