package loadgen

import (
	"path/filepath"
	"strings"
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
// once through the live stack, and assemble the sim-vs-real parity report.
func TestChaosRecordReplayParity(t *testing.T) {
	sched, err := faultnet.ParseSpec("seed=42,latency=2ms,jitter=1ms,corrupt=0.02")
	if err != nil {
		t.Fatal(err)
	}
	tl := recordRun(t, Config{
		UEs:      8,
		Trunks:   2,
		Duration: 400 * time.Millisecond,
		Profiles: []hbmsg.AppProfile{fastProfile(60 * time.Millisecond)},
		Faults:   sched,
	})
	if len(tl.Faults) == 0 {
		t.Fatal("chaos run recorded no fault windows")
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

	live, err := ReplayLive(loaded, ReplayOptions{Speedup: 4, AckTimeout: 2 * time.Second})
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
}

// TestChaosReplayUnderFaults replays a recorded trunked run with faults of
// its own: a partition that swallows writes and refuses dials, then resets
// on every write. Whatever the faults do to delivery, every recorded send
// is offered and accounted exactly once — delivered or timed out.
func TestChaosReplayUnderFaults(t *testing.T) {
	tl := recordRun(t, Config{
		UEs:      8,
		Trunks:   2,
		Duration: 400 * time.Millisecond,
		Profiles: []hbmsg.AppProfile{fastProfile(60 * time.Millisecond)},
	})
	faults := faultnet.NewSchedule(7, []faultnet.Window{
		{From: 100 * time.Millisecond, To: 200 * time.Millisecond, Fault: faultnet.Fault{Kind: faultnet.KindPartition}},
		{From: 250 * time.Millisecond, To: 300 * time.Millisecond, Fault: faultnet.Fault{Kind: faultnet.KindReset, Prob: 1}},
	})
	m, err := ReplayLive(tl, ReplayOptions{AckTimeout: 150 * time.Millisecond, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if int(m.Sent) != tl.Sends() {
		t.Fatalf("replayed %d of %d recorded sends", m.Sent, tl.Sends())
	}
	if m.Delivered+m.Timeouts != m.Sent {
		t.Fatalf("delivered %d + timeouts %d != sent %d", m.Delivered, m.Timeouts, m.Sent)
	}
	if m.Delivered == 0 {
		t.Fatalf("nothing delivered around the fault windows: %+v", m)
	}
	st := faults.Stats()
	if st.DroppedSends+st.RefusedDials == 0 || st.Resets == 0 {
		t.Fatalf("the faults never fired: %+v", st)
	}
	t.Logf("sent %d, delivered %d, timeouts %d; dropped sends %d, refused dials %d, resets %d",
		m.Sent, m.Delivered, m.Timeouts, st.DroppedSends, st.RefusedDials, st.Resets)
}

// TestFleetUnderWriteLatency offers a 200-UE direct fleet through a
// schedule that delays every write by 5 ms. Whatever runs the UEs' sends,
// a send blocked in a slow write must not hold up the UEs due beside it:
// the fleet still sends at least 95 % of what the open-loop schedule calls
// for — one heartbeat per UE at its arrival offset and once a period after.
func TestFleetUnderWriteLatency(t *testing.T) {
	faults, err := faultnet.ParseSpec("seed=3,latency=5ms")
	if err != nil {
		t.Fatal(err)
	}
	const (
		ues      = 200
		period   = 100 * time.Millisecond
		duration = 2 * time.Second
	)
	r, err := New(Config{
		UEs:      ues,
		Profiles: []hbmsg.AppProfile{fastProfile(period)},
		Duration: duration,
		Faults:   faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// A steady schedule's window is one period: UE i activates at
	// period·i/ues.
	scheduled := uint64(0)
	for i := range ues {
		offset := period * time.Duration(i) / ues
		scheduled += uint64((duration-offset)/period) + 1
	}
	t.Logf("sent %d of %d scheduled (%.1f %%), acked %d, timeouts %d, %d writes delayed",
		rep.Sent, scheduled, 100*float64(rep.Sent)/float64(scheduled), rep.Acked, rep.Timeouts, faults.Stats().Delayed)
	if rep.Sent*100 < scheduled*95 {
		t.Errorf("sent %d of the %d heartbeats the schedule calls for, want ≥ 95 %%", rep.Sent, scheduled)
	}
	if rep.Acked+rep.Timeouts != rep.Sent {
		t.Errorf("acked %d + timeouts %d != sent %d", rep.Acked, rep.Timeouts, rep.Sent)
	}
	if faults.Stats().Delayed == 0 {
		t.Fatal("no write was delayed: the latency fault never fired")
	}
}
