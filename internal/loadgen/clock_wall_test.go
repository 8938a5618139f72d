//go:build !goexperiment.synctest

package loadgen

import (
	"cmp"
	"testing"
	"time"

	"d2dhb/internal/faultnet"
)

// The load generator's fleet, replay and trunk tests each have one body,
// which runs on the clock and network chosen at build time. This is
// tier-1's: loopback sockets and the wall clock, at periods of tens of
// milliseconds, with loose bounds. clock_bubble_test.go runs the same
// bodies in a synctest bubble (GOEXPERIMENT=synctest, make bubble).

// timed runs a timing test's body on loopback and the wall clock.
func timed(t *testing.T, body func(t *testing.T, nw faultnet.Net)) { body(t, faultnet.OS{}) }

// pick is a parameter's wall-clock value.
func pick[T any](wall, _ T) T { return wall }

// await polls cond for up to wall.
func await(t *testing.T, wall, _ time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(wall)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition never held: %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// reached reports whether a count has reached its wall-clock bound.
func reached[N cmp.Ordered](got, want N) bool { return got >= want }
