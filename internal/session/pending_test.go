package session

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestPending(t *testing.T) {
	const timeout = 100 * time.Millisecond
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ascending := func(n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i + 1)
		}
		return keys
	}

	cases := []struct {
		name     string
		fallback bool
		run      func(t *testing.T, p *Pending[uint64])
	}{
		{"sweep and drain walk in key order, not map order", true, func(t *testing.T, p *Pending[uint64]) {
			// 64 keys inserted shuffled: map iteration would return them
			// ascending with probability 1/64!.
			keys := ascending(64)
			rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			for _, k := range keys {
				p.Track(k, at(0))
			}
			resend, lost := p.Sweep(at(101), timeout)
			if !slices.Equal(resend, ascending(64)) || lost != nil {
				t.Fatalf("first sweep: resend %v lost %v, want 1..64 ascending and nothing lost", resend, lost)
			}
			resend, lost = p.Sweep(at(202), timeout)
			if resend != nil || !slices.Equal(lost, ascending(64)) {
				t.Fatalf("second sweep: resend %v lost %v, want nothing resent and 1..64 ascending lost", resend, lost)
			}
			for _, k := range keys {
				p.Track(k, at(300))
			}
			if got := p.Drain(); !slices.Equal(got, ascending(64)) || p.Len() != 0 {
				t.Fatalf("drain returned %v and left %d, want 1..64 ascending and an empty table", got, p.Len())
			}
		}},
		{"first expiry resends with a fresh window, second times out", true, func(t *testing.T, p *Pending[uint64]) {
			p.Track(1, at(0))
			if resend, lost := p.Sweep(at(100), timeout); resend != nil || lost != nil {
				t.Fatalf("swept at exactly the timeout: resend %v lost %v, want the window still open", resend, lost)
			}
			if resend, lost := p.Sweep(at(150), timeout); !slices.Equal(resend, []uint64{1}) || lost != nil {
				t.Fatalf("first expiry: resend %v lost %v, want [1] and nothing lost", resend, lost)
			}
			// The window restarted at 150: nothing is due until after 250.
			if resend, lost := p.Sweep(at(240), timeout); resend != nil || lost != nil || p.Len() != 1 {
				t.Fatalf("inside the fresh window: resend %v lost %v len %d", resend, lost, p.Len())
			}
			if resend, lost := p.Sweep(at(260), timeout); resend != nil || !slices.Equal(lost, []uint64{1}) || p.Len() != 0 {
				t.Fatalf("second expiry: resend %v lost %v len %d, want [1] lost and gone", resend, lost, p.Len())
			}
		}},
		{"an empty table is usable before the first Track", true, func(t *testing.T, p *Pending[uint64]) {
			p.Forget(1)
			p.Abandon(1)
			_, settled := p.Settle(1, at(0))
			resend, lost := p.Sweep(at(1000), timeout)
			if settled || resend != nil || lost != nil || len(p.Drain()) != 0 || p.Len() != 0 {
				t.Fatalf("empty table: settled %v resend %v lost %v len %d", settled, resend, lost, p.Len())
			}
		}},
		{"no fallback path: first expiry times out", false, func(t *testing.T, p *Pending[uint64]) {
			p.Track(1, at(0))
			if resend, lost := p.Sweep(at(150), timeout); resend != nil || !slices.Equal(lost, []uint64{1}) {
				t.Fatalf("resend %v lost %v, want [1] lost at once", resend, lost)
			}
		}},
		{"settle after fallback counts once, from the resend", true, func(t *testing.T, p *Pending[uint64]) {
			p.Track(1, at(0))
			p.Sweep(at(150), timeout)
			if lat, ok := p.Settle(1, at(170)); !ok || lat != 20*time.Millisecond {
				t.Fatalf("Settle = %v, %v; want 20ms since the resend", lat, ok)
			}
			// The ack over the other path arrives second: nothing to count.
			if _, ok := p.Settle(1, at(180)); ok {
				t.Fatal("a settled heartbeat settled twice")
			}
			if resend, lost := p.Sweep(at(1000), timeout); resend != nil || lost != nil {
				t.Fatalf("settled heartbeat swept: resend %v lost %v", resend, lost)
			}
		}},
		{"settle reports latency from the send; unknown keys do not settle", true, func(t *testing.T, p *Pending[uint64]) {
			p.Track(1, at(0))
			if lat, ok := p.Settle(1, at(30)); !ok || lat != 30*time.Millisecond {
				t.Fatalf("Settle = %v, %v; want 30ms", lat, ok)
			}
			if _, ok := p.Settle(2, at(30)); ok {
				t.Fatal("settled a heartbeat that was never tracked")
			}
		}},
		{"abandoned heartbeat stays for the fallback sweep", true, func(t *testing.T, p *Pending[uint64]) {
			p.Track(1, at(0))
			p.Abandon(1)
			if resend, _ := p.Sweep(at(150), timeout); !slices.Equal(resend, []uint64{1}) {
				t.Fatalf("resend %v, want the unsent heartbeat handed to the fallback path", resend)
			}
		}},
		{"abandoned heartbeat without a fallback is a transport error, not a timeout", false, func(t *testing.T, p *Pending[uint64]) {
			p.Track(1, at(0))
			p.Abandon(1)
			if _, lost := p.Sweep(at(150), timeout); lost != nil || p.Len() != 0 {
				t.Fatalf("lost %v len %d, want it forgotten", lost, p.Len())
			}
		}},
		{"sent survives the re-arm; oldest follows the open windows", true, func(t *testing.T, p *Pending[uint64]) {
			if _, ok := p.Oldest(); ok {
				t.Fatal("empty table has an oldest window")
			}
			p.Track(1, at(0))
			p.Track(2, at(40))
			if got, ok := p.Oldest(); !ok || !got.Equal(at(0)) {
				t.Fatalf("Oldest = %v, %v; want %v", got, ok, at(0))
			}
			p.Sweep(at(120), timeout) // re-arms 1 at 120
			if got, _ := p.Oldest(); !got.Equal(at(40)) {
				t.Fatalf("Oldest after re-arm = %v, want %v", got, at(40))
			}
			if got, ok := p.Sent(1); !ok || !got.Equal(at(0)) {
				t.Fatalf("Sent = %v, %v; want the original send %v", got, ok, at(0))
			}
			p.Forget(1)
			if _, ok := p.Sent(1); ok || p.Len() != 1 {
				t.Fatalf("forgotten heartbeat still tracked (len %d)", p.Len())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, &Pending[uint64]{Cmp: cmp.Compare[uint64], Fallback: tc.fallback})
		})
	}
}
