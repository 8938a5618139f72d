package simtime

import (
	"testing"
	"time"
)

// BenchmarkSteadyStateEvent measures the kernel's per-event cost in the
// steady state every simulation spends its life in: one event fires and
// schedules its successor, exactly like a heartbeat loop. With the pooled
// typed kernel this is the 0 allocs/event figure in EXPERIMENTS.md.
func BenchmarkSteadyStateEvent(b *testing.B) {
	s := NewScheduler(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			if _, err := s.After(time.Millisecond, tick); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := s.After(time.Millisecond, tick); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	if n < b.N {
		b.Fatalf("fired %d of %d", n, b.N)
	}
}

// BenchmarkPendingChurn measures the kernel with a deep queue: 4096 pending
// timers while events fire and reschedule, the regime of a 10k-device city
// where every device holds heartbeat, feedback and RRC timers at once.
func BenchmarkPendingChurn(b *testing.B) {
	const depth = 4096
	s := NewScheduler(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n+depth <= b.N {
			if _, err := s.After(time.Duration(1+n%97)*time.Millisecond, tick); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < depth && i < b.N; i++ {
		if _, err := s.After(time.Duration(1+i%97)*time.Millisecond, tick); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkStopAndRearm measures the cancel/rearm pattern of the RRC
// inactivity tail and the relay flush timer: every event stops a pending
// timer and arms a replacement.
func BenchmarkStopAndRearm(b *testing.B) {
	s := NewScheduler(1)
	pending, err := s.After(time.Hour, func() {})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Stop(pending)
		pending, err = s.After(time.Hour, func() {})
		if err != nil {
			b.Fatal(err)
		}
	}
}
