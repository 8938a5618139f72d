//go:build !goexperiment.synctest

package relaynet

import (
	"testing"
	"time"

	"d2dhb/internal/stacktest"
)

// The live stack's timing tests run only in a synctest bubble
// (clock_bubble_test.go). This build has no testing/synctest, so each of
// them runs in a child test process built with GOEXPERIMENT=synctest.

// timed runs the calling timing test in the child's bubble.
func timed(t *testing.T, _ func(t *testing.T, nw network)) { stacktest.Bubble(t) }

// await is the bubble's alone: no body runs in this build.
func await(*testing.T, time.Duration, func() bool, string) { panic("await outside a synctest bubble") }
