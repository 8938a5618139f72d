package loadgen

import (
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"d2dhb/internal/experiments"
	"d2dhb/internal/faultnet"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/rec"
)

// TestChaosRollingRestart cycles every shard of a live 3-shard cluster
// under sustained trunked load: drain the shard (graceful presence
// handoff), kill it, start a replacement and join it back — the standard
// deploy motion. The fleet must lose nothing across all three cycles:
// zero timeouts, monotonic per-user acks, and a ring epoch that advances
// on every membership change.
func TestChaosRollingRestart(t *testing.T) {
	routerURL, router, shards := startTestCluster(t, 3)
	r, err := New(Config{
		UEs:         60,
		Trunks:      3,
		Profiles:    []hbmsg.AppProfile{fastProfile(100 * time.Millisecond)},
		Duration:    3200 * time.Millisecond,
		AckTimeout:  400 * time.Millisecond,
		ClusterAddr: routerURL,
	})
	if err != nil {
		t.Fatal(err)
	}

	type cycle struct {
		id            string
		before, after uint64
		drain, join   error
	}
	cycles := make([]cycle, 0, len(shards))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range shards {
			time.Sleep(400 * time.Millisecond)
			old := shards[i]
			c := cycle{id: old.node.ID, before: router.Config().Epoch}
			c.drain = router.Drain(old.node.ID)
			// Let the drained config propagate (the fleet's cluster client
			// polls every 250 ms) and in-flight acks land before the kill —
			// the graceful half of a rolling deploy.
			time.Sleep(400 * time.Millisecond)
			old.kill()
			fresh := startTestShard(t, old.node.ID+"-v2")
			c.join = router.Join(fresh.node)
			c.after = router.Config().Epoch
			cycles = append(cycles, c)
		}
	}()

	rep, err := r.Run()
	<-done
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range cycles {
		if c.drain != nil {
			t.Errorf("drain %s: %v", c.id, c.drain)
		}
		if c.join != nil {
			t.Errorf("join %s replacement: %v", c.id, c.join)
		}
		if c.after <= c.before {
			t.Errorf("restart of %s did not advance the epoch: %d → %d", c.id, c.before, c.after)
		}
	}
	if len(cycles) != 3 {
		t.Fatalf("completed %d restart cycles, want 3", len(cycles))
	}
	if rep.SentRelayed == 0 || rep.AckedRelayed == 0 {
		t.Fatalf("fleet moved no traffic: %+v", rep)
	}
	if rep.Timeouts != 0 {
		t.Errorf("rolling restart lost %d heartbeats (fallback=%d dialErrs=%d writeErrs=%d)",
			rep.Timeouts, rep.FallbackResends, rep.DialErrors, rep.WriteErrors)
	}
	if rep.OutOfOrderAcks != 0 {
		t.Errorf("acks went non-monotonic across restarts: %d out of order", rep.OutOfOrderAcks)
	}
	// Every shard was replaced: the original IDs must all be gone and the
	// epoch must reflect 3 drains + 3 joins.
	cfg := router.Config()
	for _, sh := range shards {
		if _, ok := cfg.Node(sh.node.ID); ok {
			t.Errorf("original shard %s still in the config after its restart", sh.node.ID)
		}
	}
	if cfg.Epoch < 7 {
		t.Errorf("final epoch %d, want >= 7 after six membership changes", cfg.Epoch)
	}
}

// TestChaosRecordReplayParity is the full record/replay loop under fault
// injection: record a chaos run, survive the file codec, replay the trace
// twice through the deterministic sim (digests must be bit-identical) and
// once through the live stack, and assemble the sim-vs-real parity report
// — in the bubble, an hour of Table I apps recorded and replayed at its
// own pace.
func TestChaosRecordReplayParity(t *testing.T) {
	timed(t, func(t *testing.T, nw faultnet.Net) {
		sched, err := faultnet.ParseSpec("seed=42,latency=2ms,jitter=1ms,corrupt=0.02")
		if err != nil {
			t.Fatal(err)
		}
		tl := recordRun(t, Config{
			UEs:      8,
			Trunks:   2,
			Duration: hours(1),
			Net:      sched.On(nw),
		})
		if len(tl.Faults) == 0 {
			t.Fatal("chaos run recorded no fault windows")
		}
		if tl.Sends() != 116 {
			t.Fatalf("%d sends recorded", tl.Sends())
		}

		path := filepath.Join(t.TempDir(), "chaos.d2dr")
		if err := tl.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := rec.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Digest() != tl.Digest() {
			t.Fatal("trace digest changed across the file round trip")
		}

		sim1, err := experiments.ReplaySim(loaded)
		if err != nil {
			t.Fatal(err)
		}
		sim2, err := experiments.ReplaySim(loaded)
		if err != nil {
			t.Fatal(err)
		}
		if sim1.Digest() != sim2.Digest() {
			t.Fatalf("sim replay not deterministic: %s vs %s", sim1.Digest(), sim2.Digest())
		}
		if sim1.Sent != uint64(loaded.Sends()) {
			t.Fatalf("sim replayed %d of %d recorded sends", sim1.Sent, loaded.Sends())
		}

		live, err := ReplayLive(loaded, ReplayOptions{Speedup: 1, AckTimeout: 2 * time.Second, Net: nw})
		if err != nil {
			t.Fatal(err)
		}
		if live.Sent != uint64(loaded.Sends()) {
			t.Fatalf("live replayed %d of %d recorded sends", live.Sent, loaded.Sends())
		}

		par := rec.NewParityReport(loaded, loaded.RecordedMetrics(), sim1, live)
		if par.TraceDigest != loaded.Digest() || par.SimDigest != sim1.Digest() {
			t.Fatalf("parity report digests %s/%s", par.TraceDigest, par.SimDigest)
		}
		if gap := par.DeliveryGap(); gap < -1 || gap > 1 {
			t.Fatalf("delivery gap %v out of range", gap)
		}
		table := par.Table().String()
		for _, want := range []string{"delivery ratio", "sim", "live", "recorded"} {
			if !strings.Contains(table, want) {
				t.Errorf("parity table missing %q:\n%s", want, table)
			}
		}
		if _, err := par.JSON(); err != nil {
			t.Fatal(err)
		}
		t.Logf("sim digest %s, delivery gap %.4f", par.SimDigest, par.DeliveryGap())
	})
}

// TestChaosReplayUnderFaults replays a recorded trunked run with faults of
// its own: a partition that swallows writes and refuses dials, then resets
// on every write. Whatever the faults do to delivery, every recorded send
// is offered and accounted exactly once — delivered or timed out. In the
// bubble the recording is an hour of Table I apps, the partition its
// second ten minutes and the resets five minutes after. A heartbeat lost
// in a window is resent once at its lapse, still inside the window, so it
// is written off rather than delivered at the group's next emission, and
// every heartbeat delivered is delivered within its window and a grain.
func TestChaosReplayUnderFaults(t *testing.T) {
	timed(t, func(t *testing.T, nw faultnet.Net) {
		tl := recordRun(t, Config{
			UEs:      8,
			Trunks:   2,
			Duration: hours(1),
			Net:      nw,
		})
		faults := faultnet.NewSchedule(7, []faultnet.Window{
			{From: 10 * time.Minute, To: 20 * time.Minute, Fault: faultnet.Fault{Kind: faultnet.KindPartition}},
			{From: 25 * time.Minute, To: 30 * time.Minute, Fault: faultnet.Fault{Kind: faultnet.KindReset, Prob: 1}},
		})
		const window = 150 * time.Millisecond
		m, err := ReplayLive(tl, ReplayOptions{AckTimeout: window, Net: faults.On(nw)})
		if err != nil {
			t.Fatal(err)
		}
		st := faults.Stats()
		t.Logf("sent %d, delivered %d, timeouts %d; dropped sends %d, refused dials %d, resets %d; ack p95 %.0f ms, p99 %.0f ms, max %.0f ms",
			m.Sent, m.Delivered, m.Timeouts, st.DroppedSends, st.RefusedDials, st.Resets,
			m.AckLatency.P95Ms, m.AckLatency.P99Ms, m.AckLatency.MaxMs)
		if int(m.Sent) != tl.Sends() {
			t.Fatalf("replayed %d of %d recorded sends", m.Sent, tl.Sends())
		}
		if m.Delivered+m.Timeouts != m.Sent {
			t.Fatalf("delivered %d + timeouts %d != sent %d", m.Delivered, m.Timeouts, m.Sent)
		}
		if m.Delivered != 88 {
			t.Fatalf("%d delivered around the fault windows: %+v", m.Delivered, m)
		}
		if st.DroppedSends+st.RefusedDials == 0 || st.Resets == 0 {
			t.Fatalf("the faults never fired: %+v", st)
		}
		ackedInWindow(t, m, window)
	})
}

// grain is the live stack's send grid, the driver's grain.
const grain = 10 * time.Millisecond

// ms is d in the milliseconds of rec.Quantiles.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ackedInWindow fails the test when a replayed heartbeat was acknowledged
// later than its window and a grain after it was sent.
func ackedInWindow(t *testing.T, m rec.Metrics, window time.Duration) {
	t.Helper()
	if limit := window + grain; m.AckLatency.MaxMs > ms(limit) {
		t.Fatalf("a heartbeat was acknowledged %.0f ms after it was sent, past its %v window and %v", m.AckLatency.MaxMs, window, limit-window)
	}
}

// TestReplayResendsAtTheLapse replays a recorded trunked run to a server
// that loses the first ack frame it writes on each connection, so each
// group's first emission goes unacknowledged. A replayed trunk steps only
// at its recorded emissions, but it wakes at its earliest lapse too, so it
// resends those heartbeats when their window lapses, and they are
// acknowledged within their window and a grain, not at the group's next
// emission (in the bubble, a Table I period later).
func TestReplayResendsAtTheLapse(t *testing.T) {
	timed(t, func(t *testing.T, nw faultnet.Net) {
		tl := recordRun(t, Config{
			UEs:      8,
			Trunks:   2,
			Duration: hours(1),
			Net:      nw,
		})
		const window = 150 * time.Millisecond
		m, err := ReplayLive(tl, ReplayOptions{AckTimeout: window, Net: firstAckLost{nw}})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("sent %d, delivered %d, timeouts %d; ack max %.0f ms", m.Sent, m.Delivered, m.Timeouts, m.AckLatency.MaxMs)
		if m.Delivered+m.Timeouts != m.Sent || m.Delivered != m.Sent {
			t.Fatalf("sent %d, delivered %d, timeouts %d: the unacknowledged heartbeats were not resent", m.Sent, m.Delivered, m.Timeouts)
		}
		if m.AckLatency.MaxMs < ms(window) {
			t.Fatalf("the slowest ack took %.0f ms: no heartbeat was delivered by its resend", m.AckLatency.MaxMs)
		}
		ackedInWindow(t, m, window)
	})
}

// TestRecordedResendFollowsItsSend records a trunked run whose first dials
// fall inside a partition, so the trunks' first emissions never reach the
// wire and their resends at the lapse do. The recording must hold each
// such heartbeat's send before its ack, and a replay of it with no faults
// must deliver every heartbeat it shows acknowledged. In the bubble the
// partition is the run's first minute of Table I apps.
func TestRecordedResendFollowsItsSend(t *testing.T) {
	timed(t, func(t *testing.T, nw faultnet.Net) {
		faults := faultnet.NewSchedule(7, []faultnet.Window{
			{From: 0, To: time.Minute, Fault: faultnet.Fault{Kind: faultnet.KindPartition}},
		})
		tl := recordRun(t, Config{
			UEs:      8,
			Trunks:   2,
			Duration: hours(1),
			Net:      faults.On(nw),
		})
		if faults.Stats().RefusedDials == 0 {
			t.Fatal("no dial was refused: the partition never fired")
		}
		acked := acksFollowSends(t, tl)
		m, err := ReplayLive(tl, ReplayOptions{Net: nw})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d sends, %d acked; replay delivered %d of %d", tl.Sends(), acked, m.Delivered, m.Sent)
		if m.Delivered < acked {
			t.Fatalf("the replay delivered %d heartbeats, the recording shows %d acknowledged", m.Delivered, acked)
		}
	})
}

// TestRecordedRelayResendFollowsItsSend records relayed UEs whose writes
// to their relay fail inside a reset window, so those heartbeats reach the
// wire only in their fallback resend at the lapse. The recording must hold
// each such resend as the heartbeat's send, before its ack; a resend whose
// relay write did reach the wire is not recorded again. In the bubble the
// window is minutes 10–15 of 8 Table I UEs behind one relay.
func TestRecordedRelayResendFollowsItsSend(t *testing.T) {
	timed(t, func(t *testing.T, nw faultnet.Net) {
		faults := faultnet.NewSchedule(7, []faultnet.Window{{
			From:  10 * time.Minute,
			To:    15 * time.Minute,
			Fault: faultnet.Fault{Kind: faultnet.KindReset, Prob: 1},
		}})
		tl := recordRun(t, Config{
			UEs:        8,
			Relays:     1,
			RelayRatio: 1,
			Duration:   hours(1),
			Net:        faults.On(nw),
		})
		if faults.Stats().Resets == 0 {
			t.Fatal("no connection was reset: the window never fired")
		}
		acked := acksFollowSends(t, tl)
		t.Logf("recorded %d sends, %d acked", tl.Sends(), acked)
	})
}

// acksFollowSends checks that every ack in the recording follows a send of
// the same (client, seq), and returns how many acks it holds.
func acksFollowSends(t *testing.T, tl *rec.Timeline) (acked uint64) {
	t.Helper()
	type key struct {
		client int
		seq    uint64
	}
	sent := make(map[key]bool)
	for _, e := range tl.Events {
		k := key{e.Client, e.Seq}
		switch e.Kind {
		case rec.EvSend:
			sent[k] = true
		case rec.EvAck:
			if !sent[k] {
				t.Fatalf("client %d seq %d acknowledged at %v with no send recorded before it", e.Client, e.Seq, e.At)
			}
			acked++
		}
	}
	return acked
}

// firstAckLost is a network whose listeners' connections swallow the first
// write: a server on it loses the first frame it writes on a connection.
type firstAckLost struct{ faultnet.Net }

func (n firstAckLost) Listen(network, addr string) (net.Listener, error) {
	ln, err := n.Net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return firstWriteLostListener{ln}, nil
}

type firstWriteLostListener struct{ net.Listener }

func (l firstWriteLostListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &firstWriteLost{Conn: c}, nil
}

type firstWriteLost struct {
	net.Conn
	wrote atomic.Bool
}

func (c *firstWriteLost) Write(b []byte) (int, error) {
	if c.wrote.CompareAndSwap(false, true) {
		return len(b), nil
	}
	return c.Conn.Write(b)
}

// TestFleetUnderWriteLatency offers a direct fleet through a schedule that
// delays every write by 5 ms. Whatever runs the UEs' sends, a send blocked
// in a slow write must not hold up the UEs due beside it: the fleet still
// sends all of what the open-loop schedule calls for — one heartbeat per
// UE at its arrival offset and once a period after — with the whole fleet
// of Table I apps arriving at once, so a quarter to a half of it is due at
// each instant with a send.
func TestFleetUnderWriteLatency(t *testing.T) {
	timed(t, func(t *testing.T, nw faultnet.Net) {
		faults, err := faultnet.ParseSpec("seed=3,latency=5ms")
		if err != nil {
			t.Fatal(err)
		}
		ues := 100
		r, err := New(Config{
			UEs: ues,
			// The last sends are two minutes before the end.
			Duration: hours(1) + 2*time.Minute,
			Arrival:  Schedule{Shape: ArrivalSpike},
			Net:      faults.On(nw),
		})
		if err != nil {
			t.Fatal(err)
		}
		sched := Schedule{Shape: r.cfg.Arrival.Shape, Window: r.arrivalWindow()}
		scheduled := uint64(0)
		for i := range ues {
			offset, period := sched.StartOffset(i, ues), r.scale(r.cfg.Profiles[i%len(r.cfg.Profiles)].Period)
			scheduled += uint64((r.cfg.Duration-offset)/period) + 1
		}
		rep, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("sent %d of %d scheduled (%.1f %%), acked %d, timeouts %d, %d writes delayed",
			rep.Sent, scheduled, 100*float64(rep.Sent)/float64(scheduled), rep.Acked, rep.Timeouts, faults.Stats().Delayed)
		if rep.Sent != scheduled {
			t.Errorf("sent %d of the %d heartbeats the schedule calls for, want all", rep.Sent, scheduled)
		}
		if rep.Acked+rep.Timeouts != rep.Sent {
			t.Errorf("acked %d + timeouts %d != sent %d", rep.Acked, rep.Timeouts, rep.Sent)
		}
		if faults.Stats().Delayed == 0 {
			t.Fatal("no write was delayed: the latency fault never fired")
		}
	})
}
