package loadgen

import (
	"net"
	"strings"
	"testing"
	"time"

	"d2dhb/internal/faultnet"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/rec"
	"d2dhb/internal/relaynet"
)

// recordRun executes one small in-process loadgen run with a recorder
// attached and returns the captured timeline.
func recordRun(t *testing.T, cfg Config) *rec.Timeline {
	t.Helper()
	recorder := rec.NewRecorder()
	cfg.Recorder = recorder
	if rep := runFleet(t, cfg); rep.Sent == 0 {
		t.Fatal("recorded run sent nothing")
	}
	tl, err := recorder.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestRecordCapturesTimeline(t *testing.T) {
	tl := recordRun(t, Config{
		UEs:      4,
		Duration: 400 * time.Millisecond,
		Profiles: []hbmsg.AppProfile{fastProfile(60 * time.Millisecond)},
	})
	if len(tl.Clients) != 4 {
		t.Fatalf("client table %d, want 4", len(tl.Clients))
	}
	for _, c := range tl.Clients {
		if c.Path != rec.PathDirect || c.Relay != -1 {
			t.Fatalf("direct run recorded client %+v", c)
		}
	}
	if tl.Sends() == 0 {
		t.Fatal("no sends recorded")
	}
	m := tl.RecordedMetrics()
	if m.Delivered == 0 {
		t.Fatal("no acks recorded")
	}
	// The trace must survive its own codec.
	rt, err := rec.Decode(tl.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Digest() != tl.Digest() {
		t.Fatal("recorded trace not canonical")
	}
}

func TestRecordTrunkedRun(t *testing.T) {
	tl := recordRun(t, Config{
		UEs:      12,
		Trunks:   2,
		Duration: 400 * time.Millisecond,
		Profiles: []hbmsg.AppProfile{fastProfile(60 * time.Millisecond)},
	})
	if len(tl.Clients) != 12 {
		t.Fatalf("client table %d, want 12", len(tl.Clients))
	}
	groups := map[int]bool{}
	for _, c := range tl.Clients {
		if c.Path != rec.PathTrunked || c.Relay < 0 {
			t.Fatalf("trunked run recorded client %+v", c)
		}
		groups[c.Relay] = true
	}
	if len(groups) != 2 {
		t.Fatalf("trunk groups %d, want 2", len(groups))
	}
	if tl.RelayPeriod <= 0 || tl.RelayCapacity <= 0 {
		t.Fatalf("relay params %v/%d not recorded", tl.RelayPeriod, tl.RelayCapacity)
	}
}

// TestRecordFaultWindows: a run under a fault schedule records the
// schedule's seed and its windows, at their offsets from the run's start —
// in the bubble, a run of an hour.
func TestRecordFaultWindows(t *testing.T) {
	timed(t, func(t *testing.T, nw faultnet.Net) {
		sched := faultnet.NewSchedule(7, []faultnet.Window{
			{From: 50 * time.Millisecond, To: 150 * time.Millisecond, Fault: faultnet.Fault{Kind: faultnet.KindLatency, Latency: 5 * time.Millisecond}},
		})
		tl := recordRun(t, Config{
			UEs:      2,
			Duration: hours(1),
			Net:      sched.On(nw),
		})
		if tl.Seed != 7 {
			t.Fatalf("seed %d, want the fault schedule's 7", tl.Seed)
		}
		if len(tl.Faults) != 1 || tl.Faults[0].Kind != "latency" {
			t.Fatalf("fault windows %+v", tl.Faults)
		}
		if tl.Faults[0].From != 50*time.Millisecond || tl.Faults[0].To != 150*time.Millisecond {
			t.Fatalf("fault window times %+v", tl.Faults[0])
		}
		if tl.Sends() != 29 {
			t.Fatalf("%d sends recorded", tl.Sends())
		}
	})
}

// TestReplayLiveFromRecording is the full loop: record a trunked run, then
// replay the identical timeline through the live stack and check every
// replayed heartbeat is delivered again — in the bubble, an hour of Table
// I apps replayed at its own pace.
func TestReplayLiveFromRecording(t *testing.T) {
	timed(t, func(t *testing.T, nw faultnet.Net) {
		tl := recordRun(t, Config{
			UEs:      8,
			Trunks:   2,
			Duration: hours(1),
			Net:      nw,
		})
		m, err := ReplayLive(tl, ReplayOptions{Speedup: 1, AckTimeout: 2 * time.Second, Net: nw})
		if err != nil {
			t.Fatal(err)
		}
		if m.Source != "live" {
			t.Fatalf("source %q", m.Source)
		}
		if int(m.Sent) != tl.Sends() || m.Sent != 116 {
			t.Fatalf("replayed %d of %d recorded sends", m.Sent, tl.Sends())
		}
		if m.Delivered != m.Sent || m.Timeouts != 0 {
			t.Fatalf("live replay lost heartbeats: %+v", m)
		}
		// Trunked sends must actually batch: fewer frames than heartbeats.
		if m.Signaling.Uplinks >= m.Sent || m.Signaling.Batches != 29 {
			t.Fatalf("no live aggregation: %+v", m.Signaling)
		}
	})
}

// TestReplayLiveMixedPaths replays three rounds of a direct client and a
// trunk group of two: each round is one direct frame and one coalesced
// batch — in the bubble at Table I's 270 s period.
func TestReplayLiveMixedPaths(t *testing.T) {
	timed(t, func(t *testing.T, nw faultnet.Net) {
		period, expiry := 270*time.Second, 300*time.Second
		tl := &rec.Timeline{
			RelayPeriod:   2 * period,
			RelayCapacity: 4,
			Clients: []rec.Client{
				{ID: "d0", App: "chat", Period: period, Expiry: expiry, Relay: -1},
				{ID: "g0", App: "chat", Period: period, Expiry: expiry, Path: rec.PathTrunked, Relay: 0},
				{ID: "g1", App: "chat", Period: period, Expiry: expiry, Path: rec.PathTrunked, Relay: 0},
			},
		}
		for p := 0; p < 3; p++ {
			base := time.Duration(p) * period
			for i := 0; i < 3; i++ {
				tl.Events = append(tl.Events, rec.Event{
					At: base + time.Duration(i)*500*time.Microsecond, Kind: rec.EvSend,
					Client: i, Seq: uint64(p + 1),
				})
			}
		}
		m, err := ReplayLive(tl, ReplayOptions{AckTimeout: 2 * time.Second, Net: nw})
		if err != nil {
			t.Fatal(err)
		}
		if m.Sent != 9 || m.Delivered != 9 {
			t.Fatalf("mixed replay %+v", m)
		}
		// Per round: one direct frame + one coalesced batch of two.
		if m.Signaling.Uplinks != 6 || m.Signaling.Batches != 3 {
			t.Fatalf("frame structure %+v, want 6 uplinks / 3 batches", m.Signaling)
		}
	})
}

// TestReplayLiveMixedProfileGroup replays one relayed group whose clients
// run three different app profiles, as loadgen's per-UE profile rotation
// records them: every client must reach the server under its own app and
// expiry, not the group's first one.
func TestReplayLiveMixedProfileGroup(t *testing.T) {
	srv := relaynet.NewServer()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	tl := &rec.Timeline{
		RelayPeriod: 100 * time.Millisecond,
		Clients: []rec.Client{
			{ID: "u0", App: "wechat", Expiry: 3 * time.Second, Pad: 54, Path: rec.PathRelayed, Relay: 0},
			{ID: "u1", App: "qq", Expiry: 5 * time.Second, Pad: 80, Path: rec.PathRelayed, Relay: 0},
			{ID: "u2", App: "whatsapp", Expiry: 7 * time.Second, Pad: 20, Path: rec.PathRelayed, Relay: 0},
		},
	}
	for round := 0; round < 2; round++ {
		for i := range tl.Clients {
			tl.Events = append(tl.Events, rec.Event{
				At:   time.Duration(round)*50*time.Millisecond + time.Duration(i)*500*time.Microsecond,
				Kind: rec.EvSend, Client: i, Seq: uint64(round + 1),
			})
		}
	}
	m, err := ReplayLive(tl, ReplayOptions{ServerAddr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if m.Delivered != 6 || m.Signaling.Batches != 2 {
		t.Fatalf("mixed-profile replay %+v, want 6 delivered in 2 batches", m)
	}
	seen := map[string]bool{}
	for _, e := range srv.ExportPresence() {
		for _, c := range tl.Clients {
			if e.ID != c.ID {
				continue
			}
			seen[c.ID] = true
			if e.App != c.App {
				t.Errorf("%s presence app %q, want %q", c.ID, e.App, c.App)
			}
			if got := time.Duration(e.DeadlineUnixNano - e.LastSeenUnixNano); got != c.Expiry {
				t.Errorf("%s presence deadline − last seen = %v, want its expiry %v", c.ID, got, c.Expiry)
			}
		}
	}
	if len(seen) != len(tl.Clients) {
		t.Fatalf("server holds presence for %d of %d clients", len(seen), len(tl.Clients))
	}
}

// TestReplayLiveUnreachableServer: a replay aimed at a server nobody
// listens on is an error, not a trace's worth of timeouts.
func TestReplayLiveUnreachableServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	tl := &rec.Timeline{
		Clients: []rec.Client{{ID: "d0", App: "chat", Expiry: time.Second, Relay: -1}},
		Events:  []rec.Event{{Kind: rec.EvSend, Seq: 1}},
	}
	_, err = ReplayLive(tl, ReplayOptions{ServerAddr: addr, AckTimeout: 100 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("replay against a closed port returned %v, want an unreachable-server error", err)
	}
}

func TestReplayLiveErrors(t *testing.T) {
	if _, err := ReplayLive(nil, ReplayOptions{}); err == nil {
		t.Fatal("nil timeline accepted")
	}
	bad := &rec.Timeline{RelayPeriod: -1}
	if _, err := ReplayLive(bad, ReplayOptions{}); err == nil {
		t.Fatal("invalid timeline accepted")
	}
	empty := &rec.Timeline{}
	m, err := ReplayLive(empty, ReplayOptions{AckTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if m.Sent != 0 {
		t.Fatalf("empty replay sent %d", m.Sent)
	}
}
