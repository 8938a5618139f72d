//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package relaynet

import (
	"testing"
	"testing/synctest"
	"time"

	"d2dhb/internal/faultnet"
)

// The live stack's timing tests run here, and only here, in a synctest
// bubble over a faultnet.Network: time stands still while any goroutine
// runs and jumps to the next timer once all are blocked, so a test runs the
// server, its relays and UEs for virtual hours in milliseconds, at the
// paper's periods (Table I: 270 s, expiring after 300 s), and its outcomes
// are exact counts at named instants. A build without GOEXPERIMENT=synctest
// runs them in a child process built with it (clock_child_test.go).
//
// go.mod's go 1.22 defaults to asynchronous timer channels, which
// synctest.Run refuses; the go:debug line above turns them off in this
// test binary only.

// timed runs a timing test's body once, in a bubble of its own over a
// network of its own; the body's cleanups run in the bubble too, before
// it ends.
func timed(t *testing.T, body func(t *testing.T, nw network)) {
	synctest.Run(func() {
		t.Run("bubble", func(t *testing.T) { body(t, faultnet.NewNetwork()) })
	})
}

// bubbleStart is the instant every bubble's clock starts at.
var bubbleStart = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// await sleeps to the instant at after the bubble's start, waits until
// every other goroutine in the bubble is blocked, and checks cond then.
func await(t *testing.T, at time.Duration, cond func() bool, msg string) {
	t.Helper()
	time.Sleep(time.Until(bubbleStart.Add(at)))
	synctest.Wait()
	if !cond() {
		t.Fatalf("at %v: %s", at, msg)
	}
}
