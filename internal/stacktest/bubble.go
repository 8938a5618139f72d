package stacktest

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
)

// bubbleTests names the live stack's timing tests, one a line. Each runs
// only in a testing/synctest bubble; `make bubble` reads the same file.
//
//go:embed bubble_tests.txt
var bubbleTests string

// bubbleRun is the -run pattern that selects every listed timing test.
func bubbleRun() string {
	return "^(" + strings.Join(strings.Fields(bubbleTests), "|") + ")$"
}

// margin is what Bubble keeps of the caller's deadline: the child times
// out that much earlier, so the caller reports which test hung.
const margin = 5 * time.Second

// Bubble runs the calling timing test in a testing/synctest bubble, from a
// test binary built without testing/synctest, and reports the test's log
// and verdict there as the caller's. The first call in a test process runs
// `go test` on the package as a child process, with GOEXPERIMENT=synctest
// and every listed test selected. Later calls take their results from that
// run; a test run again (-count above 1) runs the child again, and a second
// call from the same test does nothing. The child times out at the caller's
// deadline, less margin. Bubble skips the test where the toolchain has no
// synctest experiment.
func Bubble(t *testing.T) {
	t.Helper()
	child.Lock()
	defer child.Unlock()
	name := t.Name()
	if child.run != nil && child.run.taken[name] == t {
		return
	}
	if child.run == nil || child.run.taken[name] != nil {
		child.run = runChild(t)
	}
	r := child.run
	r.taken[name] = t
	if r.skip != "" {
		t.Skip(r.skip)
	}
	log := r.log(func(test string) bool { return test == name || strings.HasPrefix(test, name+"/") })
	switch r.verdict[name] {
	case "pass":
		t.Log("passed in a synctest bubble" + log)
	case "skip":
		t.Skip("skipped in a synctest bubble" + log)
	case "fail":
		t.Error("failed in a synctest bubble" + log)
	default:
		t.Errorf("no verdict from the synctest bubble (%v)%s%s",
			r.err, log, r.log(func(test string) bool { return test == "" }))
	}
}

// child is the latest run of the child process in this test process: one
// run serves every listed test of the package.
var child struct {
	sync.Mutex
	run *childRun
}

// childRun is what one run of the child printed and decided.
type childRun struct {
	lines   []childLine
	verdict map[string]string     // pass, fail or skip, by test name
	taken   map[string]*testing.T // the callers that took a test's verdict
	skip    string                // why the toolchain cannot run the child
	err     error
}

// childLine is a line the child printed, and the test that printed it ("":
// the go command, or no test).
type childLine struct{ test, text string }

func runChild(t *testing.T) *childRun {
	r := &childRun{verdict: map[string]string{}, taken: map[string]*testing.T{}}
	// A cached result stands while the test binary and the files it opened
	// are unchanged. The child also builds the files this build leaves out
	// (the synctest-only ones) and reads testdata: opening every directory
	// of the package keys the cache on their files too.
	_ = filepath.WalkDir(".", func(string, fs.DirEntry, error) error { return nil })

	experiment := "synctest"
	if set := os.Getenv("GOEXPERIMENT"); set != "" {
		experiment = set + "," + experiment
	}
	args := []string{"test", "-json", "-count=1", "-run", bubbleRun()}
	if raceBuild() {
		args = append(args, "-race")
	}
	if deadline, ok := t.Deadline(); ok {
		args = append(args, "-timeout", max(time.Until(deadline)-margin, time.Second).String())
	}
	// go test puts its toolchain's bin directory first on the PATH it
	// gives the test binary, so this is the go that built the caller.
	cmd := exec.Command("go", append(args, ".")...)
	cmd.Env = append(os.Environ(), "GOEXPERIMENT="+experiment)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	r.err = err
	lines := bufio.NewScanner(bytes.NewReader(out))
	lines.Buffer(nil, 1<<20)
	for lines.Scan() {
		var ev struct{ Action, Test, Output string }
		if json.Unmarshal(lines.Bytes(), &ev) != nil {
			r.add("", lines.Text())
			continue
		}
		switch ev.Action {
		case "pass", "fail", "skip":
			if ev.Test != "" {
				r.verdict[ev.Test] = ev.Action
			}
		}
		if ev.Output != "" {
			for _, text := range strings.Split(strings.TrimSuffix(ev.Output, "\n"), "\n") {
				r.add(ev.Test, text)
			}
		}
	}
	for _, text := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
		if strings.Contains(text, "unknown GOEXPERIMENT") {
			r.skip = "the timing tests run in a testing/synctest bubble, which needs " +
				"GOEXPERIMENT=synctest (Go 1.24); this toolchain has none: " + text
		}
		r.add("", text)
	}
	return r
}

// log is the lines the child printed in the tests of, on lines of their
// own after a colon; "" if there are none.
func (r *childRun) log(of func(test string) bool) string {
	var b strings.Builder
	for _, l := range r.lines {
		if of(l.test) {
			b.WriteString("\n" + l.text)
		}
	}
	if b.Len() == 0 {
		return ""
	}
	return ":" + b.String()
}

// add keeps a line of the child's log, unless the test framework printed
// it: test2json would read it as a result of the caller's tests.
func (r *childRun) add(test, text string) {
	if !framework.MatchString(text) {
		r.lines = append(r.lines, childLine{test, text})
	}
}

// raceBuild reports whether the calling test binary has the race detector,
// which the child then gets too.
func raceBuild() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
