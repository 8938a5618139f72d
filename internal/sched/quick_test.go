package sched

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"d2dhb/internal/hbmsg"
)

// arrival is a generated forwarded-heartbeat arrival for property tests.
type arrival struct {
	at     time.Duration
	expiry time.Duration
}

// driveNagle replays arrivals through a Nagle scheduler the way a relay
// would: flushing whenever Collect demands it or the deadline passes, and
// opening a new period after each period boundary. It returns every flushed
// batch together with its flush instant.
type flushRecord struct {
	at    time.Duration
	batch []hbmsg.Heartbeat
}

func driveNagle(capacity int, period time.Duration, arrivals []arrival) ([]flushRecord, error) {
	n, err := NewNagle(capacity, period)
	if err != nil {
		return nil, err
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })

	var flushes []flushRecord
	periodStart := time.Duration(0)
	n.StartPeriod(periodStart)

	advance := func(to time.Duration) {
		// Fire any due deadline flushes and period rollovers before `to`.
		for {
			if at, ok := n.Deadline(); ok && at <= to {
				batch := n.Flush(at)
				if len(batch) > 0 {
					flushes = append(flushes, flushRecord{at: at, batch: batch})
				}
			}
			next := periodStart + period
			if next <= to {
				periodStart = next
				n.StartPeriod(periodStart)
				continue
			}
			return
		}
	}

	var seq uint64
	for _, a := range arrivals {
		advance(a.at)
		seq++
		hb := hbmsg.Heartbeat{App: "p", Src: "u", Seq: seq, Origin: a.at, Expiry: a.expiry, Size: 54}
		flushNow, err := n.Collect(hb, a.at)
		if err != nil {
			continue // expired-on-arrival or closed window: relay rejects
		}
		if flushNow {
			batch := n.Flush(a.at)
			flushes = append(flushes, flushRecord{at: a.at, batch: batch})
		}
	}
	// Drain the final window.
	if at, ok := n.Deadline(); ok {
		batch := n.Flush(at)
		if len(batch) > 0 {
			flushes = append(flushes, flushRecord{at: at, batch: batch})
		}
	}
	return flushes, nil
}

// TestQuickNagleInvariants property-checks Algorithm 1's three constraints
// over arbitrary arrival patterns:
//
//  1. no batch exceeds the capacity M,
//  2. no accepted message is flushed after its deadline,
//  3. every flush happens within the relay period that collected it.
func TestQuickNagleInvariants(t *testing.T) {
	const (
		capacity = 4
		period   = 270 * time.Second
	)
	prop := func(raw []uint16) bool {
		arrivals := make([]arrival, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			arrivals = append(arrivals, arrival{
				at:     time.Duration(raw[i]%2000) * time.Second,
				expiry: time.Duration(raw[i+1]%400+1) * time.Second,
			})
		}
		flushes, err := driveNagle(capacity, period, arrivals)
		if err != nil {
			return false
		}
		for _, f := range flushes {
			if len(f.batch) > capacity {
				return false
			}
			for _, hb := range f.batch {
				if hb.Expired(f.at) {
					return false // constraint t − t_k < T_k violated
				}
				// Flush must land inside the period that collected the
				// message: flush time − origin < period is implied by
				// t < periodEnd and origin >= periodStart.
				if f.at-hb.Origin > period {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNagleNoMessageLostOrDuplicated property-checks conservation:
// every accepted heartbeat appears in exactly one flushed batch.
func TestQuickNagleNoMessageLostOrDuplicated(t *testing.T) {
	const (
		capacity = 3
		period   = 100 * time.Second
	)
	prop := func(raw []uint16) bool {
		n, err := NewNagle(capacity, period)
		if err != nil {
			return false
		}
		periodStart := time.Duration(0)
		n.StartPeriod(periodStart)
		accepted := make(map[uint64]int)
		flushedCount := make(map[uint64]int)

		now := time.Duration(0)
		var seq uint64
		for _, r := range raw {
			now += time.Duration(r%50) * time.Second
			// Roll periods and fire deadlines up to now.
			for {
				if at, ok := n.Deadline(); ok && at <= now {
					for _, hb := range n.Flush(at) {
						flushedCount[hb.Seq]++
					}
				}
				if next := periodStart + period; next <= now {
					periodStart = next
					n.StartPeriod(periodStart)
					continue
				}
				break
			}
			seq++
			hb := hbmsg.Heartbeat{Src: "u", Seq: seq, Origin: now, Expiry: time.Duration(r%300+1) * time.Second, Size: 54}
			flushNow, err := n.Collect(hb, now)
			if err != nil {
				continue
			}
			accepted[seq] = 1
			if flushNow {
				for _, f := range n.Flush(now) {
					flushedCount[f.Seq]++
				}
			}
		}
		if at, ok := n.Deadline(); ok {
			for _, f := range n.Flush(at) {
				flushedCount[f.Seq]++
			}
		}
		for s := range accepted {
			if flushedCount[s] != 1 {
				return false
			}
		}
		for s := range flushedCount {
			if _, ok := accepted[s]; !ok {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNagleBatchesAtLeastAsLargeAsImmediate property-checks the
// batching advantage: over any arrival pattern, Nagle performs at most as
// many flushes (cellular connections) as the immediate policy would.
func TestQuickNagleBatchesAtLeastAsLargeAsImmediate(t *testing.T) {
	const (
		capacity = 8
		period   = 270 * time.Second
	)
	prop := func(raw []uint16) bool {
		arrivals := make([]arrival, 0, len(raw))
		for i, r := range raw {
			arrivals = append(arrivals, arrival{
				at:     time.Duration(int(r%1000)+i) * time.Second,
				expiry: time.Duration(r%200+30) * time.Second,
			})
		}
		flushes, err := driveNagle(capacity, period, arrivals)
		if err != nil {
			return false
		}
		accepted := 0
		for _, f := range flushes {
			accepted += len(f.batch)
		}
		// Immediate sends one connection per accepted message; Nagle must
		// not exceed that.
		return len(flushes) <= accepted || accepted == 0
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(14))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDriveNagleSmoke(t *testing.T) {
	// Two capacity-2 bursts in two different relay periods (period 270 s):
	// each burst flushes at capacity, and a straggler inside the first
	// period after its flush is rejected (window closed until next period).
	arrivals := []arrival{
		{at: 10 * time.Second, expiry: time.Minute},
		{at: 20 * time.Second, expiry: time.Minute},
		{at: 30 * time.Second, expiry: time.Minute}, // rejected: window closed
		{at: 300 * time.Second, expiry: time.Minute},
		{at: 320 * time.Second, expiry: time.Minute},
	}
	flushes, err := driveNagle(2, 270*time.Second, arrivals)
	if err != nil {
		t.Fatalf("driveNagle: %v", err)
	}
	if len(flushes) != 2 {
		t.Fatalf("flushes = %d, want 2", len(flushes))
	}
	total := 0
	for _, f := range flushes {
		total += len(f.batch)
	}
	if total != 4 {
		t.Fatalf("flushed %d messages, want 4", total)
	}
	if flushes[0].at != 20*time.Second || flushes[1].at != 320*time.Second {
		t.Fatalf("flush instants = %v/%v, want 20s/320s", flushes[0].at, flushes[1].at)
	}
}

// TestQuickNagleFlushNeverAfterMinDeadline property-checks that the
// scheduler's reported deadline never exceeds the earliest pending
// message deadline nor the period end.
func TestQuickNagleFlushNeverAfterMinDeadline(t *testing.T) {
	const period = 270 * time.Second
	prop := func(raw []uint16) bool {
		n, err := NewNagle(32, period)
		if err != nil {
			return false
		}
		n.StartPeriod(0)
		minDeadline := period // period end bound
		now := time.Duration(0)
		for _, r := range raw {
			now += time.Duration(r%40) * time.Second
			if now >= period {
				break
			}
			hb := hbmsg.Heartbeat{Src: "u", Seq: uint64(r), Origin: now,
				Expiry: time.Duration(r%300+1) * time.Second, Size: 54}
			flushNow, err := n.Collect(hb, now)
			if err != nil {
				continue
			}
			if d := hb.Deadline(); d < minDeadline {
				minDeadline = d
			}
			if flushNow {
				n.Flush(now)
				return true // capacity/deadline flush ends the scenario
			}
			at, ok := n.Deadline()
			if !ok {
				return false
			}
			if at > minDeadline {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(22))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// scanDeadline is the linear statement of Algorithm 1's deadline that
// Window.Deadline keeps as a running minimum: min(period end, every pending
// heartbeat's deadline), or none while the window is closed.
func scanDeadline(n *Window) (time.Duration, bool) {
	if n.closed {
		return 0, false
	}
	at := n.end
	for _, hb := range n.pending {
		at = min(at, hb.Deadline())
	}
	return at, true
}

// TestNagleDeadlineMatchesScan drives seeded random windows — deadlines on
// a coarse grid so they tie with each other and with the period end,
// capacity flushes, deadline flushes, period starts mid-window — and
// checks after every step that the running minimum equals the scan, and
// that Collect's flush decision and reason follow from the scanned value.
func TestNagleDeadlineMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	const tick = 10 * time.Millisecond
	for trial := 0; trial < 300; trial++ {
		capacity, period := 1+rng.Intn(8), time.Duration(5+rng.Intn(20))*tick
		n, err := NewNagle(capacity, period)
		if err != nil {
			t.Fatal(err)
		}
		now, start := time.Duration(0), time.Duration(0)
		check := func(step string) {
			t.Helper()
			gotAt, gotOK := n.Deadline()
			wantAt, wantOK := scanDeadline(n)
			if gotAt != wantAt || gotOK != wantOK {
				t.Fatalf("trial %d, %s at %v: Deadline() = %v, %v; the scan says %v, %v",
					trial, step, now, gotAt, gotOK, wantAt, wantOK)
			}
		}
		check("new")
		for op := 0; op < 60; op++ {
			now += time.Duration(rng.Intn(3)) * tick
			switch r := rng.Intn(10); {
			case r == 0 || now >= start+period:
				start = now
				n.StartPeriod(start)
				check("start period")
			case r == 1:
				if at, ok := n.Deadline(); ok && at <= now {
					n.Flush(now)
				}
				check("deadline flush")
			default:
				hb := hbmsg.Heartbeat{Src: "u", Seq: uint64(op), Origin: now - time.Duration(rng.Intn(4))*tick,
					Expiry: time.Duration(1+rng.Intn(12)) * tick}
				before, open := scanDeadline(n)
				full := len(n.pending)+1 >= capacity
				flushNow, err := n.Collect(hb, now)
				check("collect")
				if err != nil {
					continue
				}
				want := min(before, hb.Deadline())
				if !open || flushNow != (full || want <= now) {
					t.Fatalf("trial %d: Collect at %v with deadline %v (full %v) returned flushNow %v", trial, now, want, full, flushNow)
				}
				if flushNow {
					reason := ReasonDeadline
					switch {
					case full:
						reason = ReasonCapacity
					case want == n.end:
						reason = ReasonPeriodEnd
					}
					if got := n.LastFlushReason(); got != reason {
						t.Fatalf("trial %d: flush at %v for deadline %v: reason %v, want %v", trial, now, want, got, reason)
					}
					n.Flush(now)
					check("flush")
				}
			}
		}
	}
}
