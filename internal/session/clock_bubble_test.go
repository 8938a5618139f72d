//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package session

import (
	"testing"
	"testing/synctest"
)

// The driver's timing tests run here, and only here, in a synctest
// bubble: time stands still while any goroutine runs and jumps to the next
// timer once all are blocked, so a test runs hours of the driver in
// milliseconds, at the paper's periods, and its outcomes are exact. A build
// without GOEXPERIMENT=synctest runs them in a child process built with it
// (clock_child_test.go).
//
// go.mod's go 1.22 defaults to asynchronous timer channels, which
// synctest.Run refuses; the go:debug line above turns them off in this
// test binary only.

// timed runs a timing test's body once, in a bubble of its own; the
// body's cleanups run in the bubble too, before it ends.
func timed(t *testing.T, body func(t *testing.T)) {
	synctest.Run(func() { t.Run("bubble", body) })
}
