package simtime

import (
	"errors"
	"fmt"
	"time"
)

// Task is a handle to one pending Agenda action. Unlike a raw Timer
// handle, a Task stays valid until it fires or is cancelled even when its
// agenda migrates to another scheduler, which is exactly what a device
// crossing a tile border needs. It is live for no longer than that: the
// agenda recycles a fired or cancelled Task for a later action, so holders
// drop the handle then, as they do a Timer's.
type Task struct {
	at    time.Duration
	stamp uint64
	fn    func()
	index int   // position in the agenda heap, -1 when fired or cancelled
	next  *Task // free-list link while recycled
}

// At reports the virtual instant the task runs at.
func (t *Task) At() time.Duration { return t.at }

// Pending reports whether the task is still scheduled.
func (t *Task) Pending() bool { return t != nil && t.index >= 0 }

// Agenda multiplexes all future actions of one simulated entity onto a
// single Scheduler timer. The scheduler timer is always armed for the
// earliest pending task; when it fires, exactly one task runs and the
// timer is re-armed for the next head.
//
// The point of the indirection is migration: Detach stops the one
// underlying timer on the old scheduler and Attach arms an equivalent one
// on the new scheduler. The task set itself — instants, order, callbacks —
// moves untouched, so a migration can neither drop nor duplicate a
// scheduled action. Tasks at the same instant run in scheduling (stamp)
// order.
//
// The two halves touch one scheduler each, so each can run on the
// goroutine that owns that scheduler; the caller orders Detach before
// Attach. In between the agenda has no clock: At and After fail, and Cancel
// only edits the task set.
type Agenda struct {
	sched      *Scheduler // nil while detached
	detachedAt time.Duration
	heap       []*Task // binary min-heap ordered by (at, stamp)
	timer      *Timer  // armed for heap[0]; nil when empty, detached or mid-fire
	stamp      uint64
	free       *Task  // recycled tasks, linked through Task.next
	onFire     func() // a.fire, bound once: every re-arm hands it to the scheduler
}

// NewAgenda returns an empty agenda bound to sched.
func NewAgenda(sched *Scheduler) *Agenda {
	a := &Agenda{sched: sched}
	a.onFire = a.fire
	return a
}

// Scheduler returns the scheduler the agenda is currently homed on, nil
// while it is detached.
func (a *Agenda) Scheduler() *Scheduler { return a.sched }

// Now is the agenda's virtual time: its scheduler's, or while detached the
// instant it was detached at.
func (a *Agenda) Now() time.Duration {
	if a.sched == nil {
		return a.detachedAt
	}
	return a.sched.Now()
}

// Len reports how many tasks are pending.
func (a *Agenda) Len() int { return len(a.heap) }

// NextAt reports the instant of the earliest pending task.
func (a *Agenda) NextAt() (time.Duration, bool) {
	if len(a.heap) == 0 {
		return 0, false
	}
	return a.heap[0].at, true
}

// At schedules fn at the absolute virtual instant at.
func (a *Agenda) At(at time.Duration, fn func()) (*Task, error) {
	if fn == nil {
		return nil, errors.New("simtime: nil agenda task")
	}
	if a.sched == nil {
		return nil, errors.New("simtime: agenda is detached")
	}
	if at < a.sched.Now() {
		return nil, fmt.Errorf("simtime: agenda task at %v is before now %v", at, a.sched.Now())
	}
	t := a.free
	if t != nil {
		a.free, t.next = t.next, nil
	} else {
		t = &Task{}
	}
	t.at, t.stamp, t.fn = at, a.stamp, fn
	a.stamp++
	a.push(t)
	if a.heap[0] == t {
		a.rearm()
	}
	return t, nil
}

// After schedules fn to run d after the current virtual time; negative d
// is treated as zero.
func (a *Agenda) After(d time.Duration, fn func()) (*Task, error) {
	if d < 0 {
		d = 0
	}
	return a.At(a.Now()+d, fn)
}

// Cancel removes a pending task. It returns true if the task was pending
// and is now cancelled, false if it already ran or was already cancelled.
func (a *Agenda) Cancel(t *Task) bool {
	if t == nil || t.index < 0 {
		return false
	}
	head := a.heap[0] == t
	a.remove(t.index)
	a.recycle(t)
	if head {
		a.rearm()
	}
	return true
}

// Detach takes the agenda off its scheduler, keeping its entire pending
// task set. It touches only the scheduler the agenda is leaving.
func (a *Agenda) Detach() {
	if a.sched == nil {
		return
	}
	if a.timer != nil {
		a.sched.Stop(a.timer)
		a.timer = nil
	}
	a.detachedAt = a.sched.Now()
	a.sched = nil
}

// Attach homes a detached agenda on sched, which must be at the instant
// the agenda was detached at (the caller synchronizes schedulers at a
// window boundary before migrating): that guarantees every pending task is
// still in the new scheduler's future. It touches only sched.
func (a *Agenda) Attach(sched *Scheduler) error {
	if a.sched != nil {
		return errors.New("simtime: attach: agenda is not detached")
	}
	if sched.Now() != a.detachedAt {
		return fmt.Errorf("simtime: attach across clocks (%v -> %v)", a.detachedAt, sched.Now())
	}
	a.sched = sched
	a.rearm()
	return nil
}

// fire runs the earliest pending task and re-arms for the next one.
func (a *Agenda) fire() {
	a.timer = nil // the underlying timer just fired; the handle is dead
	t := a.heap[0]
	a.remove(0)
	fn := t.fn
	t.fn = nil
	fn()
	// Recycle only after the callback returns: while it runs the fired
	// handle is inert (index -1) but cannot yet alias a new task, so a
	// callback that re-arms itself through the handle's own field is safe.
	a.recycle(t)
	a.rearm()
}

// recycle releases a fired or cancelled task's callback and keeps the Task
// for the next At.
func (a *Agenda) recycle(t *Task) {
	t.fn = nil
	t.next = a.free
	a.free = t
}

// rearm points the underlying scheduler timer at the current heap head. A
// detached agenda has no timer to point.
func (a *Agenda) rearm() {
	if a.sched == nil {
		return
	}
	if a.timer != nil && (len(a.heap) == 0 || a.timer.At() != a.heap[0].at) {
		a.sched.Stop(a.timer)
		a.timer = nil
	}
	if len(a.heap) == 0 || a.timer != nil {
		return
	}
	timer, err := a.sched.At(a.heap[0].at, a.onFire)
	if err != nil {
		// Unreachable by construction: heads are never in the past (At
		// rejects past instants and Attach requires synchronized clocks).
		panic(fmt.Sprintf("simtime: agenda rearm: %v", err))
	}
	a.timer = timer
}

// The agenda heap is a plain binary min-heap by (at, stamp). Agendas hold
// a handful of tasks (heartbeat, flush, RRC release, feedback timers), so
// arity tuning buys nothing here.

func taskLess(x, y *Task) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.stamp < y.stamp
}

func (a *Agenda) push(t *Task) {
	t.index = len(a.heap)
	a.heap = append(a.heap, t)
	a.siftUp(t.index)
}

func (a *Agenda) remove(i int) {
	h := a.heap
	n := len(h) - 1
	t := h[i]
	last := h[n]
	h[n] = nil
	a.heap = h[:n]
	if i != n {
		last.index = i
		a.heap[i] = last
		a.siftDown(i)
		a.siftUp(last.index)
	}
	t.index = -1
}

func (a *Agenda) siftUp(i int) {
	h := a.heap
	t := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !taskLess(t, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = t
	t.index = i
}

func (a *Agenda) siftDown(i int) {
	h := a.heap
	n := len(h)
	t := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && taskLess(h[c+1], h[c]) {
			c++
		}
		if !taskLess(h[c], t) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = t
	t.index = i
}
