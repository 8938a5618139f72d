package main

import (
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"d2dhb/internal/loadgen"
	"d2dhb/internal/rec"
)

func TestRunOutcome(t *testing.T) {
	cases := []struct {
		name    string
		rep     loadgen.Report
		wantErr string
	}{
		{"clean run", loadgen.Report{Sent: 100, Acked: 100}, ""},
		{"lossy but live run", loadgen.Report{Sent: 100, Acked: 40, Errors: 60, DialErrors: 60}, ""},
		{"aborted run", loadgen.Report{Sent: 0, Errors: 12, DialErrors: 10, WriteErrors: 2}, "run aborted"},
		{"idle run", loadgen.Report{}, ""},
	}
	for _, tc := range cases {
		err := runOutcome(tc.rep)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: expected error, got nil", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestRecordReplayCLI exercises the full CLI loop: a short trunked run with
// -record, then -replay of the produced trace through sim + live stack with
// the parity report written as JSON.
func TestRecordReplayCLI(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.d2dr")
	err := run(6, 0, 0, "std", 300*time.Millisecond, 200, "steady",
		0, 0, 0, 0, "", "", 2, 0, "", "", "", "", trace)
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	tl, err := rec.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace unreadable: %v", err)
	}
	if tl.Sends() == 0 || len(tl.Clients) != 6 {
		t.Fatalf("trace %d clients / %d sends", len(tl.Clients), tl.Sends())
	}

	parity := filepath.Join(dir, "parity.json")
	if err := runReplay(trace, "", "", 4, 0, "", parity); err != nil {
		t.Fatalf("replay: %v", err)
	}
	raw, err := os.ReadFile(parity)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		TraceDigest string `json:"traceDigest"`
		SimDigest   string `json:"simDigest"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.TraceDigest != tl.Digest() || rep.SimDigest == "" {
		t.Fatalf("parity digests %+v vs trace %s", rep, tl.Digest())
	}
}

func TestReplayMissingTrace(t *testing.T) {
	if err := runReplay("no-such-trace.d2dr", "", "", 1, 0, "", ""); err == nil {
		t.Fatal("missing trace accepted")
	}
}

// TestReplayTimeout replays three direct heartbeats against a server that
// reads every frame and acknowledges none: -timeout 50ms must write all
// three off as timeouts long before the 2 s default would.
func TestReplayTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { _ = ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = io.Copy(io.Discard, conn) // returns when the replay closes it
				_ = conn.Close()
			}()
		}
	}()

	tl := &rec.Timeline{Clients: []rec.Client{{ID: "ue-0", App: "std", Expiry: time.Second, Relay: -1}}}
	for seq := uint64(1); seq <= 3; seq++ {
		tl.Events = append(tl.Events, rec.Event{At: time.Duration(seq) * 10 * time.Millisecond, Kind: rec.EvSend, Seq: seq})
	}
	dir := t.TempDir()
	trace, parity := filepath.Join(dir, "lost.d2dr"), filepath.Join(dir, "parity.json")
	if err := tl.WriteFile(trace); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := runReplay(trace, ln.Addr().String(), "", 1, 50*time.Millisecond, "", parity); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("replay took %v: -timeout was not the ack timeout", elapsed)
	}
	raw, err := os.ReadFile(parity)
	if err != nil {
		t.Fatal(err)
	}
	var rep rec.ParityReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if live := rep.Live; live.Sent != 3 || live.Delivered != 0 || live.Timeouts != 3 {
		t.Fatalf("live column %+v, want 3 sent, 3 timeouts", live)
	}
}

func TestParseAppMix(t *testing.T) {
	profiles, err := parseAppMix("wechat:2,qq")
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 3 || profiles[0].Name != profiles[1].Name {
		t.Fatalf("weighting broken: %+v", profiles)
	}
	for _, bad := range []string{"", "nosuchapp", "wechat:0", "wechat:x"} {
		if _, err := parseAppMix(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
}
