package main

import (
	"strings"
	"testing"
	"time"
)

// TestRunFailsOnUnreachableServer: the relay dials upstream lazily, so the
// start-up probe is what still turns a wrong -server into an error.
func TestRunFailsOnUnreachableServer(t *testing.T) {
	err := run("relay-t", "127.0.0.1:0", "127.0.0.1:1", time.Second, time.Second, 1, 0, "")
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("run = %v, want an unreachable-server error", err)
	}
}
