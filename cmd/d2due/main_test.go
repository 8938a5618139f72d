package main

import (
	"os"
	"testing"
)

// TestRunReportZeroDisablesStats: -report 0 turns the stats line off
// instead of panicking in time.NewTicker, and a closed stop channel shuts
// the UE down cleanly.
func TestRunReportZeroDisablesStats(t *testing.T) {
	stop := make(chan os.Signal)
	close(stop)
	if err := run("ue-t", "", "127.0.0.1:1", "standard", 0, stop); err != nil {
		t.Fatalf("run = %v, want nil", err)
	}
}
