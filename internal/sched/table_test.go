package sched

import (
	"errors"
	"maps"
	"testing"
	"time"

	"d2dhb/internal/hbmsg"
	"d2dhb/internal/telemetry"
)

// L shortens label construction in the instrument assertions.
func L(k, v string) telemetry.Label { return telemetry.L(k, v) }

// testInstruments builds a full Instruments set backed by a fresh registry.
func testInstruments(t *testing.T) (*Instruments, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	ins := &Instruments{
		Occupancy:  reg.Histogram("occ", "msgs", 1),
		FlushSize:  reg.Histogram("fsize", "msgs", 1),
		FlushSlack: reg.Histogram("slack", "us", 1),
	}
	for r := ReasonCapacity; r <= ReasonPolicy; r++ {
		ins.Flushes[r] = reg.Counter("flushes", telemetry.L("reason", r.String()))
	}
	return ins, reg
}

// flushCounts reads the per-reason flush counters of a testInstruments
// registry.
func flushCounts(reg *telemetry.Registry) map[FlushReason]float64 {
	d, out := reg.Dump(), map[FlushReason]float64{}
	for r := ReasonCapacity; r <= ReasonPolicy; r++ {
		if v := d.Find("flushes", L("reason", r.String())).Value; v != 0 {
			out[r] = v
		}
	}
	return out
}

// The shared policy table: every test below runs against all four kinds so
// the per-Kind Collect/Deadline/Flush contracts are pinned side by side.
// M=3, T=10s, fixed delay 2s throughout.
const (
	tblCapacity = 3
	tblPeriod   = 10 * time.Second
	tblDelay    = 2 * time.Second
)

func tblPolicy(t *testing.T, kind Kind) *Window {
	t.Helper()
	p, err := New(kind, tblCapacity, tblPeriod, tblDelay)
	if err != nil {
		t.Fatalf("New(%v): %v", kind, err)
	}
	return p
}

func tblHB(seq uint64, origin, expiry time.Duration) hbmsg.Heartbeat {
	return hbmsg.Heartbeat{Src: "ue", App: "app", Seq: seq, Origin: origin, Expiry: expiry}
}

func allKinds() []Kind {
	return []Kind{KindNagle, KindImmediate, KindFixedDelay, KindPeriodAligned}
}

// TestPolicyTableCapacityBoundary walks each policy through M-1, M and M+1
// collects: only Nagle enforces the capacity bound; Immediate flushes every
// message; the other baselines buffer without limit.
func TestPolicyTableCapacityBoundary(t *testing.T) {
	cases := []struct {
		kind Kind
		// flushNow expected from each of the first M-1 collects, the M-th
		// collect, and the M+1-th collect.
		underCap, atCap, overCap bool
		// acceptingAtCap is Accepting() right after the M-th collect
		// (before any flush).
		acceptingAtCap bool
	}{
		{KindNagle, false, true, false, false},
		{KindImmediate, true, true, true, true},
		{KindFixedDelay, false, false, false, true},
		{KindPeriodAligned, false, false, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			p := tblPolicy(t, tc.kind)
			p.StartPeriod(0)
			// Generous expiries keep T_k out of play: this test isolates M.
			for i := 0; i < tblCapacity-1; i++ {
				flush, err := p.Collect(tblHB(uint64(i), 0, tblPeriod), time.Duration(i))
				if err != nil {
					t.Fatalf("collect %d: %v", i, err)
				}
				if flush != tc.underCap {
					t.Fatalf("collect %d (under capacity): flushNow=%v, want %v", i, flush, tc.underCap)
				}
			}
			flush, err := p.Collect(tblHB(tblCapacity-1, 0, tblPeriod), time.Second)
			if err != nil {
				t.Fatalf("collect at capacity: %v", err)
			}
			if flush != tc.atCap {
				t.Fatalf("collect at capacity M=%d: flushNow=%v, want %v", tblCapacity, flush, tc.atCap)
			}
			if got := p.Accepting(); got != tc.acceptingAtCap {
				t.Fatalf("Accepting() at capacity = %v, want %v", got, tc.acceptingAtCap)
			}
			flush, err = p.Collect(tblHB(tblCapacity, 0, tblPeriod), time.Second)
			if tc.kind == KindNagle {
				// Nagle demanded a flush at M; without it the window is
				// over capacity but Collect itself still admits the
				// message and re-demands the flush.
				if err != nil || !flush {
					t.Fatalf("collect over capacity: flush=%v err=%v, want true,nil", flush, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("collect past M: %v", err)
			}
			if flush != tc.overCap {
				t.Fatalf("collect past M: flushNow=%v, want %v", flush, tc.overCap)
			}
		})
	}
}

// TestPolicyTableDeadline pins Deadline with one pending message whose T_k
// expires mid-period: Nagle tracks the message deadline, FixedDelay tracks
// first-arrival+delay, the others wait for the period end.
func TestPolicyTableDeadline(t *testing.T) {
	const (
		arrival = 1 * time.Second
		expiry  = 3 * time.Second // message deadline: 4s
	)
	cases := []struct {
		kind Kind
		want time.Duration
	}{
		{KindNagle, arrival + expiry},        // min(T_k deadline, period end)
		{KindImmediate, tblPeriod},           // period end only
		{KindFixedDelay, arrival + tblDelay}, // first arrival + delay
		{KindPeriodAligned, tblPeriod},       // period end only
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			p := tblPolicy(t, tc.kind)
			if _, ok := p.Deadline(); ok {
				t.Fatal("Deadline() reported a deadline before StartPeriod")
			}
			p.StartPeriod(0)
			if _, err := p.Collect(tblHB(1, arrival, expiry), arrival); err != nil {
				t.Fatalf("collect: %v", err)
			}
			at, ok := p.Deadline()
			if !ok || at != tc.want {
				t.Fatalf("Deadline() = %v,%v, want %v,true", at, ok, tc.want)
			}
		})
	}
}

// TestPolicyTableExpiryTies collects two messages sharing one deadline plus
// a later one: the tied earliest deadline must win for Nagle and must not
// perturb the baselines.
func TestPolicyTableExpiryTies(t *testing.T) {
	const tie = 4 * time.Second
	cases := []struct {
		kind Kind
		want time.Duration
	}{
		{KindNagle, tie},
		{KindImmediate, tblPeriod},
		{KindFixedDelay, 1*time.Second + tblDelay},
		{KindPeriodAligned, tblPeriod},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			p := tblPolicy(t, tc.kind)
			p.StartPeriod(0)
			// Two distinct messages with the same deadline (1s+3s and
			// 2s+2s → both 4s), then a later one (3s+5s → 8s).
			for i, hb := range []hbmsg.Heartbeat{
				tblHB(1, 1*time.Second, 3*time.Second),
				tblHB(2, 2*time.Second, 2*time.Second),
				tblHB(3, 3*time.Second, 5*time.Second),
			} {
				if _, err := p.Collect(hb, hb.Origin); err != nil {
					t.Fatalf("collect %d: %v", i, err)
				}
			}
			at, ok := p.Deadline()
			if !ok || at != tc.want {
				t.Fatalf("Deadline() = %v,%v, want %v,true", at, ok, tc.want)
			}
		})
	}
}

// TestPolicyTableArrivalExactlyAtDeadline pins the boundary semantics of
// Expired: now == Origin+Expiry is NOT expired (Expired uses >), so a
// heartbeat arriving exactly at its deadline is still admitted — and for
// Nagle it is immediately due, forcing a flush.
func TestPolicyTableArrivalExactlyAtDeadline(t *testing.T) {
	cases := []struct {
		kind     Kind
		flushNow bool
	}{
		{KindNagle, true}, // deadline ≤ now ⇒ send before it dies
		{KindImmediate, true},
		{KindFixedDelay, false},
		{KindPeriodAligned, false},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			p := tblPolicy(t, tc.kind)
			p.StartPeriod(0)
			hb := tblHB(1, 1*time.Second, 2*time.Second)
			now := hb.Deadline() // exactly at the boundary
			flush, err := p.Collect(hb, now)
			if err != nil {
				t.Fatalf("collect exactly at deadline rejected: %v", err)
			}
			if flush != tc.flushNow {
				t.Fatalf("flushNow = %v, want %v", flush, tc.flushNow)
			}
			// One instant later the same message must be rejected.
			p2 := tblPolicy(t, tc.kind)
			p2.StartPeriod(0)
			if _, err := p2.Collect(hb, now+1); !errors.Is(err, ErrExpired) {
				t.Fatalf("collect past deadline: err = %v, want ErrExpired", err)
			}
		})
	}
}

// TestPolicyTableFlushAfterClosed pins what Flush and Collect do once the
// window has already been flushed: the closing policies return nil and
// reject with ErrClosed until StartPeriod; Immediate never closes.
func TestPolicyTableFlushAfterClosed(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p := tblPolicy(t, kind)
			p.StartPeriod(0)
			if _, err := p.Collect(tblHB(1, 0, tblPeriod), 0); err != nil {
				t.Fatalf("collect: %v", err)
			}
			first := p.Flush(2 * time.Second)
			if len(first) != 1 {
				t.Fatalf("first flush returned %d messages, want 1", len(first))
			}
			second := p.Flush(3 * time.Second)
			if second != nil {
				t.Fatalf("second flush returned %v, want nil", second)
			}
			_, err := p.Collect(tblHB(2, 0, tblPeriod), 3*time.Second)
			if kind == KindImmediate {
				// Immediate keeps the window open all period.
				if err != nil {
					t.Fatalf("immediate rejected after flush: %v", err)
				}
			} else if !errors.Is(err, ErrClosed) {
				t.Fatalf("collect after flush: err = %v, want ErrClosed", err)
			}
			// A new period reopens every policy.
			p.StartPeriod(tblPeriod)
			if !p.Accepting() {
				t.Fatal("policy not accepting after StartPeriod")
			}
			if p.Pending() != 0 {
				t.Fatalf("pending = %d after StartPeriod, want 0", p.Pending())
			}
			if _, err := p.Collect(tblHB(3, tblPeriod, tblPeriod), tblPeriod); err != nil {
				t.Fatalf("collect in new period: %v", err)
			}
		})
	}
}

// TestPolicyTableFlushDrainsInOrder verifies every policy returns collected
// messages in arrival order and empties the buffer.
func TestPolicyTableFlushDrainsInOrder(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p := tblPolicy(t, kind)
			p.StartPeriod(0)
			want := []uint64{1, 2}
			for i, seq := range want {
				if _, err := p.Collect(tblHB(seq, 0, tblPeriod), time.Duration(i)); err != nil {
					t.Fatalf("collect %d: %v", seq, err)
				}
			}
			if p.Pending() != len(want) {
				t.Fatalf("pending = %d, want %d", p.Pending(), len(want))
			}
			out := p.Flush(3 * time.Second)
			if len(out) != len(want) {
				t.Fatalf("flush returned %d messages, want %d", len(out), len(want))
			}
			for i, hb := range out {
				if hb.Seq != want[i] {
					t.Fatalf("flush[%d].Seq = %d, want %d (arrival order)", i, hb.Seq, want[i])
				}
			}
			if p.Pending() != 0 {
				t.Fatalf("pending = %d after flush, want 0", p.Pending())
			}
		})
	}
}

// TestPolicyTableInstruments drives each instrumented policy through
// rejects, collects and a flush, asserting the counters and histograms see
// exactly the values derived from the injected instants. Rejects are the
// relay's to count (device.RelayStats), not the window's.
func TestPolicyTableInstruments(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p := tblPolicy(t, kind)
			ins, reg := testInstruments(t)
			p.SetInstruments(ins)

			p.StartPeriod(0)
			// One expired reject, two accepted collects, one flush.
			if _, err := p.Collect(tblHB(1, 0, time.Second), 2*time.Second); !errors.Is(err, ErrExpired) {
				t.Fatalf("want ErrExpired, got %v", err)
			}
			if _, err := p.Collect(tblHB(2, 0, tblPeriod), time.Second); err != nil {
				t.Fatalf("collect: %v", err)
			}
			if _, err := p.Collect(tblHB(3, 0, tblPeriod), time.Second); err != nil {
				t.Fatalf("collect: %v", err)
			}
			p.Flush(2 * time.Second)
			if kind != KindImmediate {
				// Collect on the closed window counts a closed reject.
				if _, err := p.Collect(tblHB(4, 0, tblPeriod), 3*time.Second); !errors.Is(err, ErrClosed) {
					t.Fatalf("want ErrClosed, got %v", err)
				}
			}

			d := reg.Dump()
			if got := d.Find("occ").Hist.Count; got != 2 {
				t.Fatalf("occupancy count = %d, want 2", got)
			}
			if got := d.Find("occ").Hist.Max; got != 2 {
				t.Fatalf("occupancy max = %d, want 2", got)
			}
			if got := d.Find("fsize").Hist.Count; got != 1 {
				t.Fatalf("flush size count = %d, want 1", got)
			}
			if got := d.Find("fsize").Hist.Max; got != 2 {
				t.Fatalf("flush size = %d, want 2", got)
			}
			// Slack is deadline−flushInstant in µs; every policy flushed at
			// 2s with its own deadline semantics, all ≥ the flush instant.
			if got := d.Find("slack").Hist.Count; got != 1 {
				t.Fatalf("slack count = %d, want 1", got)
			}
			// Before its period end only Algorithm 1 has a deadline of its
			// own; the baselines flushed by their own rule.
			want := map[FlushReason]float64{ReasonPolicy: 1}
			if kind == KindNagle {
				want = map[FlushReason]float64{ReasonDeadline: 1}
			}
			if got := flushCounts(reg); !maps.Equal(got, want) {
				t.Fatalf("flushes by reason = %v, want %v", got, want)
			}
		})
	}
}

// TestInstrumentsCountTransmittedFlushes: the flush counters count every
// Flush the relay transmits — an empty one that closes the window carries
// the relay's own heartbeat — and not an empty Flush under KindImmediate,
// which closes nothing and sends nothing.
func TestInstrumentsCountTransmittedFlushes(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p := tblPolicy(t, kind)
			ins, reg := testInstruments(t)
			p.SetInstruments(ins)
			p.StartPeriod(0)
			p.Flush(tblPeriod)
			p.Flush(tblPeriod) // closed (or still empty): not another flush
			want := map[FlushReason]float64{ReasonPeriodEnd: 1}
			if kind == KindImmediate {
				want = map[FlushReason]float64{}
			}
			if got := flushCounts(reg); !maps.Equal(got, want) {
				t.Fatalf("flushes by reason = %v, want %v", got, want)
			}
		})
	}
}
