// Package stacktest is what the live stack's tests share. Its footprint
// tests share what it knows about goroutine stacks: the starting size the
// runtime gives a new goroutine, the budget a process of parked connection
// readers keeps it at, and how to read a stack figure that earlier tests in
// the process do not move. Its timing tests share Bubble, which runs them
// in a testing/synctest bubble from a build without one. Only tests import
// it.
package stacktest

import (
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
)

// Budget is the starting stack a process of parked connection readers
// keeps: Go's smallest, so long as the readers park within 1 120 B.
const Budget = 2048

// StartingSize returns the stack the runtime gives a new goroutine: from
// the average depth the last GC scanned, plus a 928 B guard, rounded up to
// a power of two. It skips the test where the runtime does not report it.
func StartingSize(t testing.TB) uint64 {
	t.Helper()
	s := []metrics.Sample{{Name: "/gc/stack/starting-size:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindBad {
		t.Skip("the runtime does not report the starting goroutine stack size")
	}
	return s[0].Value.Uint64()
}

// ShallowStart parks enough shallow goroutines for the runtime to start
// new goroutines at Budget, and keeps them parked until the test ends. A
// GC over a few deep goroutines alone (the test's own) starts new ones at
// 4 KB, and a goroutine started at 4 KB keeps it whatever depth it runs
// at, so without them a test would read the starting size, not the
// goroutines it starts.
func ShallowStart(t testing.TB) {
	t.Helper()
	const n = 128
	done := make(chan struct{})
	var parked sync.WaitGroup
	parked.Add(n)
	for range n {
		go func() { parked.Done(); <-done }()
	}
	parked.Wait()
	t.Cleanup(func() { close(done) })
	runtime.GC()
	if start := StartingSize(t); start != Budget {
		t.Fatalf("with %d shallow goroutines parked, new goroutines start with %d B of stack, want %d",
			n, start, Budget)
	}
}

// aloneEnv names the one test a process started by Alone runs.
const aloneEnv = "D2DHB_STACKTEST_ALONE"

// Alone runs the calling test again in a process of its own — the test
// binary with only that test selected — and reports its log and verdict as
// the caller's. It returns true in the calling process, which then returns,
// and false in the process of its own, which runs the test's body. A stack
// figure read from runtime.MemStats.StackInuse reads lower after other
// tests, and under -count above 1: goroutines that exited earlier leave
// stacks behind that the goroutines a test starts reuse, so they never
// show in StackInuse.
func Alone(t *testing.T) bool {
	t.Helper()
	if os.Getenv(aloneEnv) == t.Name() {
		return false
	}
	run := strings.Split(t.Name(), "/")
	for i, name := range run {
		run[i] = "^" + regexp.QuoteMeta(name) + "$"
	}
	cmd := exec.Command(os.Args[0], "-test.run="+strings.Join(run, "/"), "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), aloneEnv+"="+t.Name())
	out, err := cmd.CombinedOutput()
	// The test framework's own lines stay out of the log: test2json would
	// read them as results of the caller's tests.
	var log []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if !framework.MatchString(line) {
			log = append(log, line)
		}
	}
	t.Logf("in a process of its own:\n%s", strings.Join(log, "\n"))
	if err != nil {
		t.Errorf("in a process of its own: %v", err)
	}
	return true
}

// framework matches the lines the test framework prints of its own.
var framework = regexp.MustCompile(`^\s*(=== (RUN|PAUSE|CONT|NAME)|--- (PASS|FAIL|SKIP)|PASS$|FAIL$|ok\s)`)
