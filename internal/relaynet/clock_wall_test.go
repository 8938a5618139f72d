//go:build !goexperiment.synctest

package relaynet

import (
	"cmp"
	"testing"
	"time"
)

// The live stack's timing tests each have one body, which runs on the
// clock and network chosen at build time. This is tier-1's: loopback
// sockets and the wall clock, at periods of tens of milliseconds, polling
// for outcomes within loose bounds. clock_bubble_test.go runs the same
// bodies in a synctest bubble (GOEXPERIMENT=synctest, make bubble).

// bubble reports which clock the timing tests run on.
const bubble = false

// timed runs a timing test's body on loopback and the wall clock.
func timed(t *testing.T, body func(t *testing.T, nw network)) { body(t, loopback{}) }

// pick is a parameter's wall-clock value.
func pick[T any](wall, _ T) T { return wall }

// await polls cond for up to wall.
func await(t *testing.T, wall, _ time.Duration, cond func() bool, msg string) {
	t.Helper()
	eventually(t, wall, cond, msg)
}

// reached reports whether a count has reached its wall-clock bound.
func reached[N cmp.Ordered](got, want N) bool { return got >= want }
