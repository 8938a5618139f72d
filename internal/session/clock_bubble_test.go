//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package session

import (
	"testing"
	"testing/synctest"
	"time"
)

// The driver's timing tests run here in a synctest bubble: time stands
// still while any goroutine runs and jumps to the next timer once all are
// blocked, so a test runs hours of the driver in milliseconds, at the
// paper's periods, and its outcomes are exact.
//
// go.mod's go 1.22 defaults to asynchronous timer channels, which
// synctest.Run refuses; the go:debug line above turns them off in this
// test binary only.

// bubble reports which clock the timing tests run on.
const bubble = true

// timed runs a timing test's body once, in a bubble of its own; the
// body's cleanups run in the bubble too, before it ends.
func timed(t *testing.T, body func(t *testing.T)) {
	synctest.Run(func() { t.Run("bubble", body) })
}

// pick is a parameter's value in the bubble.
func pick[T any](_, bubble T) T { return bubble }

// reached reports whether a count is exactly the one the bubble's clock
// makes it.
func reached[N int | int32](got, want N) bool { return got == want }

// busy takes d of the bubble's time: a spin would never see the clock
// move, and while the step sleeps, any second runner would step beside it.
func busy(d time.Duration) { time.Sleep(d) }
