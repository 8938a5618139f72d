package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"d2dhb/internal/relaynet"
)

// TestRunReportZeroDisablesStats: -report 0 turns the stats line off
// instead of panicking in time.NewTicker, and a closed stop channel shuts
// the UE down cleanly.
func TestRunReportZeroDisablesStats(t *testing.T) {
	stop := make(chan os.Signal)
	close(stop)
	if err := run(io.Discard, "ue-t", "", "127.0.0.1:1", "standard", 0, stop); err != nil {
		t.Fatalf("run = %v, want nil", err)
	}
}

// TestRunStatsAccountEveryHeartbeat: the direct path is acknowledged too,
// so the stats line counts acked and timed-out heartbeats, and the line
// printed after shutdown accounts for every heartbeat generated — the one
// the server acknowledged, or the one no server was there to take.
func TestRunStatsAccountEveryHeartbeat(t *testing.T) {
	srv := relaynet.NewServer()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	for _, c := range []struct{ server, want string }{
		{srv.Addr(), "generated=1 viaRelay=0 direct=1 fallbacks=0 reconnects=0 feedback=0 acked=1 timeouts=0"},
		{"127.0.0.1:1", "generated=1 viaRelay=0 direct=0 fallbacks=0 reconnects=0 feedback=0 acked=0 timeouts=1"},
	} {
		stop := make(chan os.Signal)
		var out bytes.Buffer
		done := make(chan error, 1)
		go func() { done <- run(&out, "ue-t", "", c.server, "standard", 20*time.Millisecond, stop) }()
		time.Sleep(200 * time.Millisecond)
		close(stop)
		if err := <-done; err != nil {
			t.Fatalf("run against %s = %v", c.server, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if last := lines[len(lines)-1]; last != c.want {
			t.Errorf("server %s: final stats line %q, want %q\n%s", c.server, last, c.want, out.String())
		}
	}
}
