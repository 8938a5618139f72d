//go:build !goexperiment.synctest

package session

import (
	"testing"
	"time"
)

// The driver's timing tests each have one body, which runs on the clock
// chosen at build time. This is tier-1's: the wall clock, at periods short
// enough to run in a fraction of a second and bounds loose enough for a
// busy machine. clock_bubble_test.go runs the same bodies in a synctest
// bubble (GOEXPERIMENT=synctest, make bubble).

// bubble reports which clock the timing tests run on.
const bubble = false

// timed runs a timing test's body on the wall clock.
func timed(t *testing.T, body func(t *testing.T)) { body(t) }

// pick is a parameter's wall-clock value.
func pick[T any](wall, _ T) T { return wall }

// reached reports whether a count has reached its wall-clock bound.
func reached[N int | int32](got, want N) bool { return got >= want }

// busy computes for d.
func busy(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}
