package simtime

import "time"

// Handle is an opaque reference to one pending Clock action. It means
// something only to the clock that minted it, and it dies when the action
// fires or is stopped: holders drop it then (a Scheduler recycles its
// timers, see Timer).
type Handle any

// Clock is the time substrate a simulated entity — a device state machine,
// an RRC machine — runs on: virtual time plus cancellable one-shot actions.
// SchedulerClock runs them as kernel events in the scheduler's global
// (instant, seq) order; AgendaClock runs them on one entity's Agenda, so
// they migrate with it between tile schedulers.
type Clock interface {
	Now() time.Duration
	// At runs fn at the absolute instant at; an instant before Now is an
	// error.
	At(at time.Duration, fn func()) (Handle, error)
	// After runs fn d after Now.
	After(d time.Duration, fn func()) (Handle, error)
	// Stop cancels a pending action; a nil handle is a no-op.
	Stop(h Handle)
}

// handle boxes a scheduling result, keeping a failed call's handle nil.
func handle[T any](p *T, err error) (Handle, error) {
	if err != nil {
		return nil, err
	}
	return p, nil
}

// SchedulerClock is the Clock of a bare Scheduler.
type SchedulerClock struct{ S *Scheduler }

func (c SchedulerClock) Now() time.Duration { return c.S.Now() }

func (c SchedulerClock) At(at time.Duration, fn func()) (Handle, error) {
	return handle(c.S.At(at, fn))
}

func (c SchedulerClock) After(d time.Duration, fn func()) (Handle, error) {
	return handle(c.S.After(d, fn))
}

func (c SchedulerClock) Stop(h Handle) {
	if t, ok := h.(*Timer); ok {
		c.S.Stop(t)
	}
}

// AgendaClock is the Clock of one entity's Agenda; Now follows the agenda
// from one scheduler to the next.
type AgendaClock struct{ A *Agenda }

func (c AgendaClock) Now() time.Duration { return c.A.Now() }

func (c AgendaClock) At(at time.Duration, fn func()) (Handle, error) {
	return handle(c.A.At(at, fn))
}

func (c AgendaClock) After(d time.Duration, fn func()) (Handle, error) {
	return handle(c.A.After(d, fn))
}

func (c AgendaClock) Stop(h Handle) {
	if t, ok := h.(*Task); ok {
		c.A.Cancel(t)
	}
}
