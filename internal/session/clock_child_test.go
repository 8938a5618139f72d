//go:build !goexperiment.synctest

package session

import (
	"testing"

	"d2dhb/internal/stacktest"
)

// The driver's timing tests run only in a synctest bubble
// (clock_bubble_test.go). This build has no testing/synctest, so each of
// them runs in a child test process built with GOEXPERIMENT=synctest.

// timed runs the calling timing test in the child's bubble.
func timed(t *testing.T, _ func(t *testing.T)) { stacktest.Bubble(t) }
