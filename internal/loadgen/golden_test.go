package loadgen

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"d2dhb/internal/faultnet"
	"d2dhb/internal/rec"
)

// liveGolden pins each TestLiveGolden row, one line a row.
const liveGolden = "testdata/live.golden"

// TestLiveGolden is the live stack's byte-level oracle, as the city
// digests are the simulator's. A run in the bubble records the same
// timeline every time, so each row pins its recorded timeline's digest and
// event count, and its report's counts, in its line of live.golden. Every
// row runs Table I's apps at speed-up 1 for 3 hours and 5 ms, in a bubble
// of its own. D2D_REGEN_GOLDEN=1 rewrites a row's line; a change that
// moves one names the row and the cause.
func TestLiveGolden(t *testing.T) {
	relayed := Config{UEs: 100, Relays: 2, RelayRatio: 0.9, Duration: hours(3)}
	trunked := Config{UEs: 200, Trunks: 4, Duration: hours(3)}
	partition := func(from, to time.Duration) []faultnet.Window {
		return []faultnet.Window{{From: from, To: to, Fault: faultnet.Fault{Kind: faultnet.KindPartition}}}
	}
	for _, row := range []struct {
		name   string
		cfg    Config
		faults []faultnet.Window // on the whole run's network; nil: none
	}{
		{"direct", Config{UEs: 100, Duration: hours(3)}, nil},
		{"relayed", relayed, nil},
		// TestRelayedFleetUnderPartition's window.
		{"relayed-partition", relayed, partition(30*time.Minute, 35*time.Minute)},
		// A seeded timeline of partitions alone. Latency, corruption and
		// resets draw from a connection's own RNG, seeded by the order the
		// schedule wrapped it in, and connections wrapped at one instant
		// take their seeds in goroutine order: with them the digest moves
		// between runs.
		{"relayed-churn", relayed, faultnet.Generate(11, faultnet.GenConfig{
			Horizon: 3 * time.Hour, Count: 6,
			Kinds:  []faultnet.Kind{faultnet.KindPartition},
			MinDur: 2 * time.Minute, MaxDur: 10 * time.Minute,
		})},
		{"trunked", trunked, nil},
		{"trunked-partition", trunked, partition(30*time.Minute, 31*time.Minute)},
	} {
		t.Run(row.name, func(t *testing.T) {
			timed(t, func(t *testing.T, nw faultnet.Net) {
				cfg := row.cfg
				cfg.Net = nw
				if row.faults != nil {
					cfg.Net = faultnet.NewSchedule(1, row.faults).On(nw)
				}
				recorder := rec.NewRecorder()
				cfg.Recorder = recorder
				rep := runFleet(t, cfg)
				tl, err := recorder.Timeline()
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("%s %s events=%d sent=%d acked=%d relayed=%d timeouts=%d fallbacks=%d reconnects=%d",
					row.name, tl.Digest(), len(tl.Events), rep.Sent, rep.Acked, rep.AckedRelayed,
					rep.Timeouts, rep.FallbackResends, rep.RelayReconnects)
				checkGoldenRow(t, row.name, got)
			})
		})
	}
}

// checkGoldenRow compares got with the row's line of liveGolden, or with
// D2D_REGEN_GOLDEN set writes it there, keeping the other rows' lines.
func checkGoldenRow(t *testing.T, name, got string) {
	t.Helper()
	var lines []string
	if f, err := os.Open(liveGolden); err == nil {
		s := bufio.NewScanner(f)
		for s.Scan() {
			lines = append(lines, s.Text())
		}
		_ = f.Close()
	}
	at := -1
	for i, line := range lines {
		if strings.HasPrefix(line, name+" ") {
			at = i
		}
	}
	if os.Getenv("D2D_REGEN_GOLDEN") != "" {
		if at < 0 {
			lines = append(lines, got)
		} else {
			lines[at] = got
		}
		if err := os.WriteFile(liveGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s: %s", liveGolden, got)
		return
	}
	switch {
	case at < 0:
		t.Fatalf("%s has no row %s (regenerate with D2D_REGEN_GOLDEN=1); the run gave\n%s", liveGolden, name, got)
	case lines[at] != got:
		t.Fatalf("%s row %s differs:\n got %s\nwant %s", liveGolden, name, got, lines[at])
	}
}
