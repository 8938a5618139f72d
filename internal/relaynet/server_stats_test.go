package relaynet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"d2dhb/internal/hbproto"
)

// TestServerCountersConcurrent hammers touch from goroutines bound to
// different stats stripes — with client IDs spanning every presence shard —
// while Stats, OnlineCount and Online poll concurrently. Run under
// -race this pins the lock-free counter design: no lost increments, and
// totals that only grow.
func TestServerCountersConcurrent(t *testing.T) {
	s := NewServer()
	const (
		workers   = 16
		perWorker = 2000
	)
	now := time.Now()

	stop := make(chan struct{})
	var pollWg sync.WaitGroup
	// Pollers: Stats totals must be monotonic while writers run.
	pollWg.Add(1)
	go func() {
		defer pollWg.Done()
		var prev ServerStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			if st.HeartbeatsDirect < prev.HeartbeatsDirect ||
				st.HeartbeatsRelayed < prev.HeartbeatsRelayed ||
				st.Batches < prev.Batches || st.Late < prev.Late {
				t.Errorf("Stats went backwards: %+v then %+v", prev, st)
				return
			}
			prev = st
		}
	}()
	pollWg.Add(1)
	go func() {
		defer pollWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.OnlineCount(time.Now())
			_ = s.Online("worker-0-client-0", time.Now())
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker gets its own stripe, like connections do; IDs mix
			// worker and sequence so they scatter across presence shards.
			cs := &connState{cc: &s.stripes[w%statsStripeCount]}
			relayed := w%2 == 1
			for i := 0; i < perWorker; i++ {
				hb := &hbproto.Heartbeat{
					Src: fmt.Sprintf("worker-%d-client-%d", w, i%97),
					Seq: uint64(i + 1), App: "test",
					Origin: now, Expiry: time.Hour,
				}
				s.touch(cs, hb, now, relayed)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	pollWg.Wait()

	st := s.Stats()
	wantEach := workers / 2 * perWorker
	if st.HeartbeatsDirect != wantEach {
		t.Errorf("direct = %d, want %d (lost increments)", st.HeartbeatsDirect, wantEach)
	}
	if st.HeartbeatsRelayed != wantEach {
		t.Errorf("relayed = %d, want %d (lost increments)", st.HeartbeatsRelayed, wantEach)
	}
	if st.Late != 0 {
		t.Errorf("late = %d, want 0 (hour-long expiries)", st.Late)
	}
	// 16 workers × 97 distinct IDs, all with hour-long deadlines.
	if got, want := s.OnlineCount(time.Now()), workers*97; got != want {
		t.Errorf("OnlineCount = %d, want %d", got, want)
	}
}

// TestServerLateCounting pins the late path: a heartbeat past its own
// deadline still resets presence but counts late.
func TestServerLateCounting(t *testing.T) {
	s := NewServer()
	now := time.Now()
	hb := &hbproto.Heartbeat{
		Src: "late-ue", Seq: 1, App: "test",
		Origin: now.Add(-2 * time.Second), Expiry: time.Second,
	}
	s.touch(&connState{cc: &s.stripes[0]}, hb, now, false)
	st := s.Stats()
	if st.Late != 1 || st.HeartbeatsDirect != 1 {
		t.Fatalf("late=%d direct=%d, want 1,1", st.Late, st.HeartbeatsDirect)
	}
	if !s.Online("late-ue", now) {
		t.Fatal("late heartbeat must still reset the presence timer")
	}
}

// populateServer fills every stats stripe and presence shard so the
// benchmarks measure realistic sweep costs, not empty-map walks.
func populateServer(b *testing.B, clients int) *Server {
	b.Helper()
	s := NewServer()
	now := time.Now()
	for i := 0; i < clients; i++ {
		hb := &hbproto.Heartbeat{
			Src: fmt.Sprintf("bench-client-%05d", i), Seq: 1, App: "bench",
			Origin: now, Expiry: time.Hour,
		}
		s.touch(&connState{cc: &s.stripes[i%statsStripeCount]}, hb, now, i%2 == 0)
	}
	return s
}

// BenchmarkServerStats guards the satellite fix of this PR: Stats must stay
// a fixed-size stripe sum (no lock, no per-connection sweep) so telemetry
// can poll it. Before the stripe refactor this held the server mutex and
// walked every live connection.
func BenchmarkServerStats(b *testing.B) {
	s := populateServer(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := s.Stats()
		if st.HeartbeatsDirect+st.HeartbeatsRelayed == 0 {
			b.Fatal("empty stats")
		}
	}
}

func BenchmarkServerOnlineCount(b *testing.B) {
	s := populateServer(b, 10000)
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := s.OnlineCount(now); n == 0 {
			b.Fatal("no clients online")
		}
	}
}

func BenchmarkServerTouch(b *testing.B) {
	s := NewServer()
	now := time.Now()
	hb := &hbproto.Heartbeat{
		Src: "bench-ue", Seq: 1, App: "bench", Origin: now, Expiry: time.Hour,
	}
	cs := &connState{cc: &s.stripes[0]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.touch(cs, hb, now, false)
	}
}
