package simtime

import (
	"testing"
	"time"
)

func TestAgendaRunsTasksInOrder(t *testing.T) {
	s := NewScheduler(1)
	a := NewAgenda(s)
	var got []int
	if _, err := a.At(3*time.Second, func() { got = append(got, 3) }); err != nil {
		t.Fatal(err)
	}
	if _, err := a.At(1*time.Second, func() { got = append(got, 1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := a.At(2*time.Second, func() { got = append(got, 2) }); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ran %v, want %v", got, want)
		}
	}
	if a.Len() != 0 {
		t.Fatalf("agenda still holds %d tasks", a.Len())
	}
}

func TestAgendaSameInstantStampOrder(t *testing.T) {
	s := NewScheduler(1)
	a := NewAgenda(s)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		if _, err := a.At(time.Second, func() { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant tasks ran as %v, want scheduling order", got)
		}
	}
}

func TestAgendaCancel(t *testing.T) {
	s := NewScheduler(1)
	a := NewAgenda(s)
	ran := false
	task, err := a.At(time.Second, func() { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	later := 0
	if _, err := a.At(2*time.Second, func() { later++ }); err != nil {
		t.Fatal(err)
	}
	if !a.Cancel(task) {
		t.Fatal("Cancel returned false for a pending task")
	}
	if a.Cancel(task) {
		t.Fatal("double Cancel returned true")
	}
	if task.Pending() {
		t.Fatal("cancelled task still pending")
	}
	if err := s.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cancelled task ran")
	}
	if later != 1 {
		t.Fatalf("surviving task ran %d times, want 1", later)
	}
}

func TestAgendaCancelHeadKeepsSameInstantSibling(t *testing.T) {
	s := NewScheduler(1)
	a := NewAgenda(s)
	var got []int
	head, err := a.At(time.Second, func() { got = append(got, 0) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.At(time.Second, func() { got = append(got, 1) }); err != nil {
		t.Fatal(err)
	}
	a.Cancel(head)
	if err := s.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("ran %v, want just the sibling", got)
	}
}

func TestAgendaReschedulesFromCallback(t *testing.T) {
	s := NewScheduler(1)
	a := NewAgenda(s)
	fires := 0
	var tick func()
	tick = func() {
		fires++
		if fires < 4 {
			if _, err := a.After(time.Second, tick); err != nil {
				t.Errorf("reschedule: %v", err)
			}
		}
	}
	if _, err := a.After(time.Second, tick); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fires != 4 {
		t.Fatalf("fired %d times, want 4", fires)
	}
	if got := s.Fired(); got != 4 {
		t.Fatalf("scheduler fired %d events for 4 agenda tasks", got)
	}
}

func TestAgendaRejectsPastAndNil(t *testing.T) {
	s := NewScheduler(1)
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	a := NewAgenda(s)
	if _, err := a.At(500*time.Millisecond, func() {}); err == nil {
		t.Fatal("scheduling in the past succeeded")
	}
	if _, err := a.At(2*time.Second, nil); err == nil {
		t.Fatal("nil task accepted")
	}
	if _, err := a.After(-time.Second, func() {}); err != nil {
		t.Fatalf("negative After should clamp to now: %v", err)
	}
}

// TestAgendaDetachedHasNoScheduler pins what a detached agenda may do: it
// keeps its tasks and its instant, refuses to schedule, and a Cancel edits
// the task set without arming anything on the scheduler it left.
func TestAgendaDetachedHasNoScheduler(t *testing.T) {
	s1, s2 := NewScheduler(1), NewScheduler(2)
	a := NewAgenda(s1)
	var got []int
	var tasks []*Task
	for i := 1; i <= 3; i++ {
		i := i
		task, err := a.At(time.Duration(i)*time.Second, func() { got = append(got, i) })
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	for _, s := range []*Scheduler{s1, s2} {
		if err := s.AdvanceTo(500 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	a.Detach()
	a.Detach() // idempotent
	if a.Scheduler() != nil {
		t.Fatal("a detached agenda still names a scheduler")
	}
	if a.Now() != 500*time.Millisecond {
		t.Fatalf("detached agenda reads %v, want the instant it was detached at", a.Now())
	}
	if s1.Pending() != 0 {
		t.Fatalf("the scheduler the agenda left still holds %d timers", s1.Pending())
	}
	if _, err := a.At(4*time.Second, func() {}); err == nil {
		t.Fatal("At on a detached agenda succeeded")
	}
	if _, err := a.After(time.Second, func() {}); err == nil {
		t.Fatal("After on a detached agenda succeeded")
	}
	// Cancelling the head would re-arm an attached agenda for the next task.
	if !a.Cancel(tasks[0]) {
		t.Fatal("Cancel of a pending task on a detached agenda reported false")
	}
	if a.Len() != 2 || s1.Pending() != 0 {
		t.Fatalf("after Cancel: %d tasks, %d timers on the old scheduler; want 2 and 0", a.Len(), s1.Pending())
	}
	if err := a.Attach(s2); err != nil {
		t.Fatal(err)
	}
	if err := a.Attach(s2); err == nil {
		t.Fatal("Attach of an attached agenda succeeded")
	}
	if s2.Pending() != 1 {
		t.Fatalf("new scheduler holds %d timers, want 1", s2.Pending())
	}
	for _, s := range []*Scheduler{s1, s2} {
		if err := s.RunUntil(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("ran %v, want the two surviving tasks in order", got)
	}
	if s1.Fired() != 0 || s2.Fired() != 2 {
		t.Fatalf("fired %d events on the old scheduler and %d on the new, want 0 and 2", s1.Fired(), s2.Fired())
	}
}

// TestAgendaAttachRejectsClockSkew: Attach is the half of a migration that
// checks the clocks, against the instant Detach recorded — the scheduler
// the agenda left may have moved on by then.
func TestAgendaAttachRejectsClockSkew(t *testing.T) {
	s1, s2 := NewScheduler(1), NewScheduler(2)
	a := NewAgenda(s1)
	if _, err := a.At(2*time.Second, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := s1.AdvanceTo(time.Second); err != nil {
		t.Fatal(err)
	}
	a.Detach()
	if err := s1.AdvanceTo(1500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := s2.AdvanceTo(1500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := a.Attach(s2); err == nil {
		t.Fatal("attach at an instant other than the detach succeeded")
	}
	if a.Scheduler() != nil || s2.Pending() != 0 {
		t.Fatal("a failed attach armed the agenda")
	}
}

// TestAgendaRecyclesTasks pins the handle-lifetime rule the recycling
// rests on: a fired or cancelled Task is reused by the next At, and inside
// its own callback a fired handle is inert but not yet reusable — so the
// self-rescheduling pattern `h, _ = a.After(...)` inside h's callback gets
// a different Task than the one that is running.
func TestAgendaRecyclesTasks(t *testing.T) {
	s := NewScheduler(1)
	a := NewAgenda(s)
	var first, rearmed *Task
	first, err := a.At(time.Second, func() {
		if a.Cancel(first) {
			t.Error("Cancel of the running task returned true")
		}
		var err error
		if rearmed, err = a.After(time.Second, func() {}); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if rearmed == first {
		t.Fatal("a task armed inside a callback aliases the task that was running")
	}
	if first.fn != nil {
		t.Fatal("fired task still pins its callback")
	}
	next, err := a.At(5*time.Second, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if next != first {
		t.Fatal("fired task was not recycled by the next At")
	}
	if !a.Cancel(next) || next.fn != nil {
		t.Fatal("cancelled task still pending or still pins its callback")
	}
	if again, _ := a.At(6*time.Second, func() {}); again != next {
		t.Fatal("cancelled task was not recycled by the next At")
	}
}

// TestAgendaSteadyStateZeroAllocs: arming and firing on a warm agenda —
// what every heartbeat, flush and RRC timer of a tile device does — makes
// no garbage: no Task, and no bound method value per re-arm.
func TestAgendaSteadyStateZeroAllocs(t *testing.T) {
	s := NewScheduler(1)
	a := NewAgenda(s)
	fn := func() {}
	cycle := func() {
		far, err := a.After(2*time.Second, fn)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.After(time.Second, fn); err != nil { // new head: re-arms the scheduler timer
			t.Fatal(err)
		}
		s.Step()
		a.Cancel(far)
	}
	cycle()
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Fatalf("warm agenda cycle allocates %v times, want 0", got)
	}
}
