package rec

import (
	"math/rand"
	"testing"
	"time"
)

// FuzzDecode throws arbitrary bytes at the trace decoder. Any input must
// either fail cleanly or decode to a timeline that re-encodes to the exact
// same bytes (decode∘encode identity on the accepted set) — no panics, no
// runaway allocations from forged length fields — and every accepted
// trace splits into emissions by Steps' partition rule.
func FuzzDecode(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(randomTimeline(rand.New(rand.NewSource(seed))).Append(nil))
	}
	// A group burst past its capacity, with gaps of exactly Coalesce and
	// just over it, so the seeds cover both of Steps' splits.
	burst := &Timeline{RelayPeriod: time.Second, RelayCapacity: 2, Clients: []Client{{ID: "g", Path: PathTrunked}}}
	for i, at := range []time.Duration{0, 0, Coalesce, 2 * Coalesce, 3*Coalesce + 1} {
		burst.Events = append(burst.Events, Event{At: at, Kind: EvSend, Seq: uint64(i)})
	}
	f.Add(burst.Append(nil))
	f.Add([]byte{})
	f.Add([]byte("D2DR"))
	f.Add([]byte{'D', '2', 'D', 'R', Version, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		tl, err := Decode(data)
		if err != nil {
			return
		}
		re := tl.Append(nil)
		if string(re) != string(data) {
			t.Fatalf("accepted input is not canonical:\nin:  %x\nout: %x", data, re)
		}
		// Exercising the summary paths must not panic on any valid trace.
		_ = tl.RecordedMetrics()
		_ = tl.Digest()
		// Both replayers split every accepted trace by the one rule.
		checkSteps(t, tl, Coalesce, tl.Steps(Coalesce))
	})
}
