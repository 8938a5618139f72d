package simtime

import (
	"testing"
	"time"
)

// TestClockContract runs both Clock implementations through the contract
// the device and RRC state machines rely on.
func TestClockContract(t *testing.T) {
	for name, mk := range map[string]func(*Scheduler) Clock{
		"scheduler": func(s *Scheduler) Clock { return SchedulerClock{S: s} },
		"agenda":    func(s *Scheduler) Clock { return AgendaClock{A: NewAgenda(s)} },
	} {
		t.Run(name, func(t *testing.T) {
			s := NewScheduler(1)
			c := mk(s)
			var fired []string
			note := func(tag string) func() { return func() { fired = append(fired, tag) } }

			if _, err := c.After(2*time.Second, note("after")); err != nil {
				t.Fatal(err)
			}
			if _, err := c.At(time.Second, note("at")); err != nil {
				t.Fatal(err)
			}
			stopped, err := c.After(1500*time.Millisecond, note("stopped"))
			if err != nil {
				t.Fatal(err)
			}
			c.Stop(stopped)
			c.Stop(nil) // no-op
			if err := s.RunUntil(3 * time.Second); err != nil {
				t.Fatal(err)
			}
			if len(fired) != 2 || fired[0] != "at" || fired[1] != "after" {
				t.Fatalf("fired %v, want [at after]", fired)
			}
			if c.Now() != 3*time.Second {
				t.Fatalf("Now = %v, want 3s", c.Now())
			}
			// A rejected action must leave a nil handle, so holders can test
			// "armed" with == nil.
			if h, err := c.At(time.Second, note("past")); err == nil || h != nil {
				t.Fatalf("past instant: handle %v, err %v; want nil handle and an error", h, err)
			}
		})
	}
}

func TestAgendaClockFollowsRehome(t *testing.T) {
	a, b := NewScheduler(1), NewScheduler(2)
	c := AgendaClock{A: NewAgenda(a)}
	ran := false
	if _, err := c.After(5*time.Second, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Scheduler{a, b} {
		if err := s.AdvanceTo(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	c.A.Detach()
	if err := c.A.Attach(b); err != nil {
		t.Fatal(err)
	}
	if err := b.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !ran || c.Now() != 10*time.Second {
		t.Fatalf("ran=%v Now=%v after rehome, want the action to fire on the new scheduler's clock", ran, c.Now())
	}
}
