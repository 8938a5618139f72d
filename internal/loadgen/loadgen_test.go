package loadgen

import (
	"encoding/json"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"d2dhb/internal/hbmsg"
	"d2dhb/internal/relaynet"
	"d2dhb/internal/session"
)

// fastProfile is a compressed app profile for short test runs. The 3×
// expiry mirrors commercial apps ("usually set as 3T", Section III) and
// gives relays slack to collect under scheduler-noisy CI runs.
func fastProfile(period time.Duration) hbmsg.AppProfile {
	return hbmsg.AppProfile{
		Name: "fast", Period: period, Size: 54,
		ExpiryFactor: 3, HeartbeatShare: 0.5, DataMsgSize: 100,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{UEs: 10},
		{UEs: -1, Duration: time.Second},
		{UEs: 10, Duration: time.Second, RelayRatio: 1.5},
		{UEs: 10, Duration: time.Second, Relays: -1},
		{UEs: 10, Duration: time.Second, Speedup: -2},
		{UEs: 10, Duration: time.Second, Profiles: []hbmsg.AppProfile{{Name: "broken"}}},
		{UEs: 10, Duration: time.Second, TrunkPaceSlots: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{UEs: 1, Duration: time.Second}); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
}

func TestDirectFleetSmallRun(t *testing.T) {
	r, err := New(Config{
		UEs:      40,
		Profiles: []hbmsg.AppProfile{fastProfile(80 * time.Millisecond)},
		Duration: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Final {
		t.Error("final report not marked final")
	}
	if rep.Sent == 0 {
		t.Fatal("no heartbeats sent")
	}
	if rep.Acked != rep.Sent {
		t.Fatalf("acked %d != sent %d (timeouts %d, errors %d)",
			rep.Acked, rep.Sent, rep.Timeouts, rep.Errors)
	}
	if rep.Timeouts != 0 || rep.Errors != 0 || rep.OutOfOrderAcks != 0 {
		t.Fatalf("losses on loopback: %+v", rep)
	}
	if rep.SentRelayed != 0 || rep.Relay != nil {
		t.Fatal("relay traffic without relays")
	}
	if rep.Direct.Count != rep.Acked {
		t.Fatalf("latency count %d != acked %d", rep.Direct.Count, rep.Acked)
	}
	if rep.ThroughputHBps <= 0 {
		t.Fatal("zero throughput")
	}
	if rep.Server == nil || rep.Server.HeartbeatsDirect == 0 {
		t.Fatalf("server stats missing: %+v", rep.Server)
	}
}

// TestRelayedFleetFallsBackOnSingleServer pins the paper's fallback on the
// one-server path: a relay that can collect one heartbeat per period
// rejects the rest, and every rejected heartbeat must still reach the
// server by the UE's direct resend — as it does against a cluster.
func TestRelayedFleetFallsBackOnSingleServer(t *testing.T) {
	r, err := New(Config{
		UEs: 40, Relays: 1, RelayRatio: 1, RelayCapacity: 1,
		Profiles: []hbmsg.AppProfile{fastProfile(500 * time.Millisecond)},
		Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeouts != 0 || rep.Acked != rep.Sent {
		t.Fatalf("sent %d, acked %d, %d timeouts: rejected heartbeats were lost",
			rep.Sent, rep.Acked, rep.Timeouts)
	}
	if rep.FallbackResends == 0 {
		t.Fatalf("no fallback resends past a capacity-1 relay: %+v", rep)
	}
}

func TestPeriodicReports(t *testing.T) {
	var got []Report
	r, err := New(Config{
		UEs:         10,
		Profiles:    []hbmsg.AppProfile{fastProfile(50 * time.Millisecond)},
		Duration:    900 * time.Millisecond,
		ReportEvery: 250 * time.Millisecond,
		OnReport:    func(rep Report) { got = append(got, rep) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 {
		t.Fatalf("got %d interim reports, want >= 2", len(got))
	}
	for _, rep := range got {
		if rep.Final {
			t.Fatal("interim report marked final")
		}
	}
	if got[len(got)-1].Sent < got[0].Sent {
		t.Fatal("cumulative counts went backwards")
	}
}

func TestReportRendering(t *testing.T) {
	r, err := New(Config{
		UEs:      8,
		Profiles: []hbmsg.AppProfile{fastProfile(60 * time.Millisecond)},
		Duration: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"final report", "delivery accounting", "heartbeat→ack latency", "server:"} {
		if !strings.Contains(s, want) {
			t.Errorf("report text missing %q:\n%s", want, s)
		}
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.Sent != rep.Sent || back.Overall.Count != rep.Overall.Count {
		t.Fatalf("round-trip mismatch: %+v vs %+v", back, rep)
	}
}

func TestArrivalRampActivatesFleetGradually(t *testing.T) {
	r, err := New(Config{
		UEs:      20,
		Profiles: []hbmsg.AppProfile{fastProfile(100 * time.Millisecond)},
		Duration: time.Second,
		Arrival:  Schedule{Shape: ArrivalRamp, Window: 800 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acked != rep.Sent || rep.Sent == 0 {
		t.Fatalf("ramp run lost heartbeats: %+v", rep)
	}
	// The last UE activates at 0.8 s of a 1 s run: it sends at most a
	// couple of heartbeats while the first sends ~10, so the total is
	// well below the all-at-once figure.
	if max := uint64(20 * 11); rep.Sent >= max {
		t.Fatalf("sent %d, expected ramp to shed early load (< %d)", rep.Sent, max)
	}
}

// TestConcurrentFleetStress is the concurrent-fleet stress test: ≥200 UEs
// plus several relays over loopback, run under -race in CI, asserting zero
// lost heartbeats and monotonic per-UE ack refs.
func TestConcurrentFleetStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	r, err := New(Config{
		UEs:        200,
		Relays:     3,
		RelayRatio: 0.5,
		Profiles:   []hbmsg.AppProfile{fastProfile(500 * time.Millisecond)},
		Duration:   2500 * time.Millisecond,
		AckTimeout: 4 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 || rep.SentRelayed == 0 || rep.SentDirect == 0 {
		t.Fatalf("both paths should carry traffic: %+v", rep)
	}
	// Zero lost heartbeats: everything sent was acknowledged.
	if rep.Acked != rep.Sent {
		t.Fatalf("lost heartbeats: sent=%d acked=%d timeouts=%d errors=%d",
			rep.Sent, rep.Acked, rep.Timeouts, rep.Errors)
	}
	if rep.Timeouts != 0 || rep.Errors != 0 {
		t.Fatalf("timeouts/errors on loopback: %+v", rep)
	}
	// Monotonic ack refs: no UE ever saw an ack for a seq at or below one
	// already acknowledged.
	if rep.OutOfOrderAcks != 0 {
		t.Fatalf("out-of-order acks: %d", rep.OutOfOrderAcks)
	}
	if rep.Server == nil || rep.Server.HeartbeatsRelayed == 0 || rep.Server.HeartbeatsDirect == 0 {
		t.Fatalf("server should see both paths: %+v", rep.Server)
	}
	if rep.Relay == nil || rep.Relay.Forwarded == 0 {
		t.Fatalf("relays idle: %+v", rep.Relay)
	}
}

// An external server that never answers must abort the run at startup:
// burning the full duration on dial errors and then reporting zero
// heartbeats as a "measurement" hides the failure behind exit 0.
func TestExternalServerUnreachableFailsFast(t *testing.T) {
	// Reserve a port, then close the listener so nothing answers there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	r, err := New(Config{
		UEs:        5,
		Profiles:   []hbmsg.AppProfile{fastProfile(50 * time.Millisecond)},
		Duration:   10 * time.Second, // must NOT be waited out
		ServerAddr: addr,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := r.Run(); err == nil {
		t.Fatal("Run succeeded against an unreachable server")
	} else if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("unexpected error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("abort took %v; the probe should fail well before the run duration", elapsed)
	}
}

// TestTrunkPacedRunLossless runs a paced trunked fleet against the
// in-process server: pacing must not lose or duplicate heartbeats (the
// open-loop schedule is preserved, only intra-period phase changes), and
// the coalesced uplink must report fewer writes than frames would imply.
func TestTrunkPacedRunLossless(t *testing.T) {
	r, err := New(Config{
		UEs:            120,
		Trunks:         2,
		TrunkPaceSlots: 4,
		Profiles:       []hbmsg.AppProfile{fastProfile(100 * time.Millisecond)},
		Duration:       time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range r.units { // pacing must actually be armed
		if tr := u.(*trunk); tr.paceSlots != 4 {
			t.Fatalf("trunk %s pacing not armed: slots=%d", tr.id, tr.paceSlots)
		}
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 {
		t.Fatal("no heartbeats sent")
	}
	if rep.Acked != rep.Sent || rep.Timeouts != 0 || rep.Errors != 0 {
		t.Fatalf("paced run lost heartbeats: acked %d / sent %d (timeouts %d, errors %d)",
			rep.Acked, rep.Sent, rep.Timeouts, rep.Errors)
	}
	if rep.TrunkWrites == 0 || rep.TrunkFrames == 0 {
		t.Fatalf("coalesced uplink accounting missing: writes=%d frames=%d",
			rep.TrunkWrites, rep.TrunkFrames)
	}
	if rep.TrunkWrites > rep.TrunkFrames {
		t.Fatalf("more writes than frames: writes=%d frames=%d",
			rep.TrunkWrites, rep.TrunkFrames)
	}
	if rep.Server == nil || rep.Server.HeartbeatsRelayed == 0 {
		t.Fatalf("server saw no relayed heartbeats: %+v", rep.Server)
	}
}

// TestFleetBuildFootprint pins what building a socket-per-UE fleet costs
// per UE, in bytes allocated and in allocations, for a direct fleet and a
// relayed one of live_direct's size. A UE is its client struct, its ack
// callback and, relayed, its register frame; a config copy, a channel, a
// per-UE cluster view or per-app slices do not fit under the ceilings.
func TestFleetBuildFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the fleet's footprint")
	}
	const ues = 2000
	cases := []struct {
		name          string
		relays        int
		bytesCeiling  float64 // per UE
		allocsCeiling float64 // per UE
	}{
		// Measured on the fleet's earlier, loadgen-private UE: 376.8 B and
		// 3.002 allocations per direct UE, 441.6 B and 4.018 per relayed one.
		{"direct", 0, 384, 3.05},
		{"relayed", 2, 448, 4.05},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := New(Config{
				UEs: ues, Relays: c.relays, RelayRatio: 1,
				Profiles: []hbmsg.AppProfile{fastProfile(time.Second)}, Duration: time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.stopServer()
			if err := r.startServer(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, ra := range r.relays {
					ra.Shutdown()
				}
			}()
			if err := r.startRelays(); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r.buildFleet()
			runtime.ReadMemStats(&after)
			size := float64(after.TotalAlloc-before.TotalAlloc) / ues
			allocs := float64(after.Mallocs-before.Mallocs) / ues
			t.Logf("%s fleet build: %.1f B/UE in %.3f allocs/UE", c.name, size, allocs)
			if size > c.bytesCeiling {
				t.Errorf("fleet build allocates %.1f B/UE, ceiling %g", size, c.bytesCeiling)
			}
			if allocs > c.allocsCeiling {
				t.Errorf("fleet build makes %.3f allocs/UE, ceiling %g", allocs, c.allocsCeiling)
			}
			if len(r.units) != ues {
				t.Fatalf("built %d units, want %d", len(r.units), ues)
			}
		})
	}
}

// TestFleetRunFootprint pins what a running socket-per-UE fleet costs in
// goroutines: a connected direct UE is its slot's reader plus the
// in-process server's handler for its connection, and nothing else — every
// UE's sends run on the run's one driver, with no goroutine, loop timer or
// watchdog of its own. It logs the goroutine stack the running fleet holds
// per UE, and checks that a UE is still one 320-byte allocation.
func TestFleetRunFootprint(t *testing.T) {
	const (
		ues   = 300
		slack = 40 // the driver, reports, the server's listener, the runtime's own
	)
	if size := unsafe.Sizeof(*(*relaynet.UEClient)(nil)); size > 320 {
		t.Errorf("a UEClient is %d B, past the 320-byte size class", size)
	}
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	base := runtime.NumGoroutine()
	var most int
	var stack uint64
	r, err := New(Config{
		UEs:         ues,
		Profiles:    []hbmsg.AppProfile{fastProfile(100 * time.Millisecond)},
		Duration:    1200 * time.Millisecond,
		ReportEvery: 300 * time.Millisecond,
		OnReport: func(Report) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			most, stack = max(most, runtime.NumGoroutine()), max(stack, ms.StackInuse)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acked == 0 || rep.Acked != rep.Sent {
		t.Fatalf("sent %d, acked %d: the fleet did not run clean", rep.Sent, rep.Acked)
	}
	extra := most - base
	t.Logf("%d UEs running: %d goroutines beyond the %d before (%.2f per UE), %.0f B of goroutine stack per UE",
		ues, extra, base, float64(extra)/ues, float64(stack-before.StackInuse)/ues)
	if extra > 2*ues+slack {
		t.Errorf("a running fleet of %d UEs holds %d goroutines, want ≤ %d: 2 per UE plus %d",
			ues, extra, 2*ues+slack, slack)
	}
}

// sinkConn is a connection that swallows writes (counting them) and never
// produces input.
type sinkConn struct {
	net.Conn // nil: only the methods below are ever called
	writes   *atomic.Int64
	closed   chan struct{}
	once     sync.Once
}

func (c *sinkConn) Write(b []byte) (int, error) { c.writes.Add(1); return len(b), nil }
func (c *sinkConn) Read([]byte) (int, error)    { <-c.closed; return 0, io.EOF }
func (c *sinkConn) Close() error                { c.once.Do(func() { close(c.closed) }); return nil }

// TestTrunkEmissionZeroAllocsOneWrite pins the trunk's whole send path
// through the session slot, over a one-node view (a single server) and a
// 3-node one: once owners are cached and buffers sized, a period of paced
// sub-ticks — the slot-0 sweep, tracking, routing by cached owner, each
// shard's Batch frames composed into one Write — allocates nothing.
func TestTrunkEmissionZeroAllocsOneWrite(t *testing.T) {
	cases := []struct {
		name                 string
		users, slots, shards int
		// per period, summed over sub-ticks and shards
		writes, frames int64
	}{
		// One sub-tick of 2·session.MaxBatch+5 users: three chunk frames.
		{"1-node", 2*session.MaxBatch + 5, 1, 1, 1, 3},
		// Four sub-ticks of ~750 users, each reaching all three shards.
		{"3-node", 3000, 4, 3, 12, 12},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, writes := sinkTrunk(t, c.users, c.slots, c.shards)
			period := func() {
				for s := range tr.paceSlots {
					tr.tickSlot(s)
					settleFresh(tr, time.Now())
				}
			}
			period() // warm-up: dial, resolve owners, size the buffers
			w0, f0 := writes.Load(), tr.c.trunkFrames.Load()
			const runs = 10
			allocs := testing.AllocsPerRun(runs, period)
			// One alloc of slack per period: pool Get/Put may interact
			// with GC mid-run.
			if allocs > 1 && !raceEnabled {
				t.Errorf("%.1f allocs per period of %d sub-ticks, want 0", allocs, c.slots)
			}
			// AllocsPerRun adds one warm-up call.
			if got := writes.Load() - w0; got != (runs+1)*c.writes {
				t.Errorf("%d Writes for %d periods, want %d each", got, runs+1, c.writes)
			}
			if got := int64(tr.c.trunkFrames.Load() - f0); got != (runs+1)*c.frames {
				t.Errorf("%d frames for %d periods, want %d each", got, runs+1, c.frames)
			}
			if n := tr.InFlight(); n != 0 || tr.c.writeErrors.Load()+tr.c.dialErrors.Load() != 0 {
				t.Fatalf("%d heartbeats left pending, %d write and %d dial errors", n, tr.c.writeErrors.Load(), tr.c.dialErrors.Load())
			}
		})
	}
}
