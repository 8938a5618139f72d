package sched

import (
	"errors"
	"testing"
	"time"

	"d2dhb/internal/hbmsg"
)

// mkHB builds a heartbeat born at origin with the given expiry.
func mkHB(seq uint64, origin, expiry time.Duration) hbmsg.Heartbeat {
	return hbmsg.Heartbeat{
		App: "test", Src: "ue-1", Seq: seq,
		Origin: origin, Expiry: expiry, Size: 54,
	}
}

func newNagle(t *testing.T, capacity int, period time.Duration) *Window {
	t.Helper()
	n, err := NewNagle(capacity, period)
	if err != nil {
		t.Fatalf("NewNagle: %v", err)
	}
	return n
}

func TestNewNagleValidation(t *testing.T) {
	if _, err := NewNagle(0, time.Minute); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewNagle(-1, time.Minute); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := NewNagle(5, 0); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestNagleStartsClosed(t *testing.T) {
	n := newNagle(t, 5, time.Minute)
	if n.Accepting() {
		t.Fatal("accepting before StartPeriod")
	}
	if _, err := n.Collect(mkHB(1, 0, time.Minute), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Collect before StartPeriod: err = %v, want ErrClosed", err)
	}
	if _, ok := n.Deadline(); ok {
		t.Fatal("deadline reported while closed")
	}
}

func TestNaglePendsWhileUnderAllBounds(t *testing.T) {
	// Algorithm 1: if k < M && t − t_k < T_k && t < T then pending.
	n := newNagle(t, 5, 270*time.Second)
	n.StartPeriod(0)
	flush, err := n.Collect(mkHB(1, 10*time.Second, 240*time.Second), 10*time.Second)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if flush {
		t.Fatal("flushed below capacity with slack deadline")
	}
	if n.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", n.Pending())
	}
}

func TestNagleCapacityForcesFlush(t *testing.T) {
	// Algorithm 1: reaching M ("k < M" fails) → "send data now".
	const m = 3
	n := newNagle(t, m, 270*time.Second)
	n.StartPeriod(0)
	for i := 1; i < m; i++ {
		flush, err := n.Collect(mkHB(uint64(i), 0, time.Hour), time.Duration(i)*time.Second)
		if err != nil || flush {
			t.Fatalf("msg %d: flush=%v err=%v, want pending", i, flush, err)
		}
	}
	flush, err := n.Collect(mkHB(m, 0, time.Hour), time.Duration(m)*time.Second)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if !flush {
		t.Fatal("capacity reached but no flush")
	}
	batch := n.Flush(time.Duration(m) * time.Second)
	if len(batch) != m {
		t.Fatalf("batch size = %d, want %d", len(batch), m)
	}
	if n.LastFlushReason() != ReasonCapacity {
		t.Fatalf("reason = %v, want capacity", n.LastFlushReason())
	}
}

func TestNagleDeadlineIsMinOfExpiryAndPeriodEnd(t *testing.T) {
	n := newNagle(t, 10, 270*time.Second)
	n.StartPeriod(0)
	// No messages: deadline is the relay's own period end.
	if at, ok := n.Deadline(); !ok || at != 270*time.Second {
		t.Fatalf("empty deadline = %v/%v, want 270s", at, ok)
	}
	// A message with a deadline before period end pulls the flush forward.
	if _, err := n.Collect(mkHB(1, 10*time.Second, 100*time.Second), 10*time.Second); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if at, _ := n.Deadline(); at != 110*time.Second {
		t.Fatalf("deadline = %v, want 110s (origin+expiry)", at)
	}
	// A message with a later deadline must not push it back.
	if _, err := n.Collect(mkHB(2, 20*time.Second, time.Hour), 20*time.Second); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if at, _ := n.Deadline(); at != 110*time.Second {
		t.Fatalf("deadline moved to %v, want 110s", at)
	}
}

func TestNagleDeadlineCappedByPeriodEnd(t *testing.T) {
	// Algorithm 1: t < T even when all T_k allow more delay.
	n := newNagle(t, 10, 60*time.Second)
	n.StartPeriod(0)
	if _, err := n.Collect(mkHB(1, 0, time.Hour), 0); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if at, _ := n.Deadline(); at != 60*time.Second {
		t.Fatalf("deadline = %v, want period end 60s", at)
	}
}

func TestNagleRejectsExpiredOnArrival(t *testing.T) {
	n := newNagle(t, 5, 270*time.Second)
	n.StartPeriod(0)
	hb := mkHB(1, 0, 10*time.Second)
	if _, err := n.Collect(hb, 20*time.Second); !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
	if n.Pending() != 0 {
		t.Fatal("expired message was retained")
	}
}

func TestNagleImmediateDueMessageFlushes(t *testing.T) {
	// A message arriving exactly at its deadline must be sent now, not
	// parked past expiry.
	n := newNagle(t, 5, 270*time.Second)
	n.StartPeriod(0)
	hb := mkHB(1, 0, 30*time.Second)
	flush, err := n.Collect(hb, 30*time.Second)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if !flush {
		t.Fatal("due message did not force flush")
	}
	if n.LastFlushReason() != ReasonDeadline {
		t.Fatalf("reason = %v, want deadline", n.LastFlushReason())
	}
}

func TestNagleClosesAfterFlushUntilNextPeriod(t *testing.T) {
	n := newNagle(t, 5, 270*time.Second)
	n.StartPeriod(0)
	if _, err := n.Collect(mkHB(1, 0, time.Hour), 0); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	got := n.Flush(100 * time.Second)
	if len(got) != 1 {
		t.Fatalf("flushed %d, want 1", len(got))
	}
	if n.Accepting() {
		t.Fatal("accepting after flush")
	}
	if _, err := n.Collect(mkHB(2, 100*time.Second, time.Hour), 100*time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// The next period reopens collection.
	n.StartPeriod(270 * time.Second)
	if !n.Accepting() {
		t.Fatal("not accepting after new period")
	}
	if n.Pending() != 0 {
		t.Fatal("stale pending after new period")
	}
}

func TestNagleFlushWhileClosedReturnsNil(t *testing.T) {
	n := newNagle(t, 5, time.Minute)
	if got := n.Flush(0); got != nil {
		t.Fatalf("Flush while closed = %v, want nil", got)
	}
}

func TestNagleFlushReasonPeriodEnd(t *testing.T) {
	n := newNagle(t, 5, 60*time.Second)
	n.StartPeriod(0)
	if _, err := n.Collect(mkHB(1, 0, time.Hour), 5*time.Second); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	n.Flush(60 * time.Second)
	if n.LastFlushReason() != ReasonPeriodEnd {
		t.Fatalf("reason = %v, want period-end", n.LastFlushReason())
	}
}

func TestNagleAccessors(t *testing.T) {
	n := newNagle(t, 7, 90*time.Second)
	if n.Capacity() != 7 || n.Period() != 90*time.Second {
		t.Fatalf("accessors = %d/%v", n.Capacity(), n.Period())
	}
	if n.Kind() != KindNagle {
		t.Fatalf("kind = %v", n.Kind())
	}
}

func TestImmediateFlushesEveryMessage(t *testing.T) {
	p, err := New(KindImmediate, 0, 270*time.Second, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.StartPeriod(0)
	for i := 1; i <= 3; i++ {
		flush, err := p.Collect(mkHB(uint64(i), 0, time.Hour), time.Duration(i)*time.Second)
		if err != nil {
			t.Fatalf("Collect: %v", err)
		}
		if !flush {
			t.Fatalf("msg %d not flushed immediately", i)
		}
		batch := p.Flush(time.Duration(i) * time.Second)
		if len(batch) != 1 {
			t.Fatalf("batch = %d msgs, want 1", len(batch))
		}
		if !p.Accepting() {
			t.Fatal("immediate policy stopped accepting mid-period")
		}
	}
}

func TestImmediateValidationAndClosed(t *testing.T) {
	if _, err := New(KindImmediate, 0, 0, 0); err == nil {
		t.Fatal("zero period accepted")
	}
	p, err := New(KindImmediate, 0, time.Minute, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := p.Collect(mkHB(1, 0, time.Hour), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	p.StartPeriod(0)
	if _, err := p.Collect(mkHB(1, 0, time.Nanosecond), time.Minute); !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
	if at, ok := p.Deadline(); !ok || at != time.Minute {
		t.Fatalf("deadline = %v/%v, want 1m", at, ok)
	}
}

func TestFixedDelayWaitsExactDelay(t *testing.T) {
	p, err := New(KindFixedDelay, 0, 270*time.Second, 30*time.Second)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.StartPeriod(0)
	if _, err := p.Collect(mkHB(1, 10*time.Second, time.Hour), 10*time.Second); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if at, _ := p.Deadline(); at != 40*time.Second {
		t.Fatalf("deadline = %v, want first+delay = 40s", at)
	}
	// Fixed delay ignores expiries — a message with a tighter T_k does not
	// move the deadline. That is exactly its weakness.
	if _, err := p.Collect(mkHB(2, 10*time.Second, 5*time.Second), 12*time.Second); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if at, _ := p.Deadline(); at != 40*time.Second {
		t.Fatalf("deadline moved to %v, want 40s (expiry ignored)", at)
	}
	batch := p.Flush(40 * time.Second)
	if len(batch) != 2 {
		t.Fatalf("batch = %d, want 2", len(batch))
	}
	// One of the two is now expired: the baseline's delivery failure.
	expired := 0
	for _, hb := range batch {
		if hb.Expired(40 * time.Second) {
			expired++
		}
	}
	if expired != 1 {
		t.Fatalf("expired in batch = %d, want 1", expired)
	}
}

func TestFixedDelayCappedByPeriodEnd(t *testing.T) {
	p, err := New(KindFixedDelay, 0, 270*time.Second, 500*time.Second)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.StartPeriod(0)
	if _, err := p.Collect(mkHB(1, 0, time.Hour), 0); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if at, _ := p.Deadline(); at != 270*time.Second {
		t.Fatalf("deadline = %v, want period end", at)
	}
}

func TestFixedDelayValidation(t *testing.T) {
	if _, err := New(KindFixedDelay, 0, time.Minute, 0); err == nil {
		t.Fatal("zero delay accepted")
	}
	if _, err := New(KindFixedDelay, 0, 0, time.Second); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestPeriodAlignedWaitsForPeriodEnd(t *testing.T) {
	p, err := New(KindPeriodAligned, 0, 270*time.Second, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.StartPeriod(0)
	for i := 1; i <= 10; i++ {
		flush, err := p.Collect(mkHB(uint64(i), 0, time.Hour), time.Duration(i)*time.Second)
		if err != nil {
			t.Fatalf("Collect: %v", err)
		}
		if flush {
			t.Fatal("period-aligned flushed early")
		}
	}
	if at, _ := p.Deadline(); at != 270*time.Second {
		t.Fatalf("deadline = %v, want 270s", at)
	}
	if got := len(p.Flush(270 * time.Second)); got != 10 {
		t.Fatalf("batch = %d, want 10", got)
	}
	if p.Accepting() {
		t.Fatal("accepting after flush")
	}
}

func TestPeriodAlignedValidation(t *testing.T) {
	if _, err := New(KindPeriodAligned, 0, 0, 0); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestNewFactory(t *testing.T) {
	tests := []struct {
		kind Kind
		want Kind
	}{
		{KindNagle, KindNagle},
		{KindImmediate, KindImmediate},
		{KindFixedDelay, KindFixedDelay},
		{KindPeriodAligned, KindPeriodAligned},
	}
	for _, tt := range tests {
		p, err := New(tt.kind, 5, time.Minute, time.Second)
		if err != nil {
			t.Fatalf("New(%v): %v", tt.kind, err)
		}
		if p.Kind() != tt.want {
			t.Fatalf("kind = %v, want %v", p.Kind(), tt.want)
		}
	}
	if _, err := New(Kind(99), 5, time.Minute, time.Second); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestParseKind resolves every Kind by its String name, in any case, and
// the empty name as Algorithm 1.
func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Kind
	}{
		{"nagle", KindNagle}, {"Nagle", KindNagle}, {"", KindNagle},
		{"immediate", KindImmediate}, {"IMMEDIATE", KindImmediate},
		{"fixed-delay", KindFixedDelay}, {"Fixed-Delay", KindFixedDelay},
		{"period-aligned", KindPeriodAligned}, {"Period-Aligned", KindPeriodAligned},
	} {
		if got, err := ParseKind(tc.name); err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, name := range []string{"yolo", "kind(1)", "fixed delay"} {
		if _, err := ParseKind(name); err == nil {
			t.Errorf("ParseKind(%q) accepted", name)
		}
	}
}

func TestKindAndReasonStrings(t *testing.T) {
	if KindNagle.String() != "nagle" || KindImmediate.String() != "immediate" ||
		KindFixedDelay.String() != "fixed-delay" || KindPeriodAligned.String() != "period-aligned" {
		t.Fatal("kind strings wrong")
	}
	if Kind(77).String() != "kind(77)" {
		t.Fatal("unknown kind string wrong")
	}
	if ReasonCapacity.String() != "capacity" || ReasonDeadline.String() != "deadline" ||
		ReasonPeriodEnd.String() != "period-end" || ReasonPolicy.String() != "policy" {
		t.Fatal("reason strings wrong")
	}
	if FlushReason(88).String() != "reason(88)" {
		t.Fatal("unknown reason string wrong")
	}
}

// TestWindowFlushedBatchZeroAllocs pins the buffer-ownership rule for
// every kind, driven as a relay drives it (a flush whenever Collect demands
// one, and at the period end): a flushed batch stays intact through the
// collects that follow it — the relay acknowledges from it after
// transmitting — and only the next Flush may reuse its array. From the third
// period on a collect-and-flush cycle allocates nothing, with instruments
// attached.
func TestWindowFlushedBatchZeroAllocs(t *testing.T) {
	const period = 100 * time.Second
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			w, err := New(kind, 8, period, period/2)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			ins, _ := testInstruments(t)
			w.SetInstruments(ins)
			var (
				batch []hbmsg.Heartbeat // the last Flush's, checked at the next
				first uint64            // batch[0].Seq when it was flushed
				seq   uint64
			)
			flush := func(at time.Duration) {
				for i, hb := range batch {
					if hb.Seq != first+uint64(i) {
						t.Fatalf("a flushed batch changed before the next Flush: %v", batch)
					}
				}
				if batch = w.Flush(at); len(batch) > 0 {
					first = batch[0].Seq
					if cap(batch) == len(batch) {
						t.Fatalf("a flushed batch of %d has no slot for the relay's own heartbeat", len(batch))
					}
				}
			}
			cycle := func(k int) {
				start := time.Duration(k) * period
				w.StartPeriod(start)
				for i := time.Duration(0); i < 5; i++ {
					seq++
					flushNow, err := w.Collect(mkHB(seq, start, period), start+i)
					if err != nil {
						t.Fatalf("period %d: Collect: %v", k, err)
					}
					if flushNow {
						flush(start + i)
					}
				}
				flush(start + period)
			}
			cycle(0)
			cycle(1)
			k := 2
			if got := testing.AllocsPerRun(50, func() { cycle(k); k++ }); got != 0 {
				t.Fatalf("warm collect/flush cycle allocates %v times, want 0", got)
			}
		})
	}
}
