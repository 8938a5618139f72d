package loadgen

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/inflight"
	"d2dhb/internal/relaynet"
)

// The capacity benchmarks are smoke-sized macro-benchmarks: each iteration
// runs a short real fleet over loopback TCP and reports acked throughput and
// tail latency as custom metrics. They are deliberately small (sub-second
// fleets) so `go test -bench` stays CI-safe; use cmd/d2dload for real
// capacity measurement.

func benchFleet(b *testing.B, cfg Config) {
	b.Helper()
	var hbps, p99 float64
	for i := 0; i < b.N; i++ {
		r, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := r.Run()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errors > 0 || rep.Sent == 0 {
			b.Fatalf("degenerate run: %+v", rep)
		}
		hbps += rep.ThroughputHBps
		p99 += rep.Overall.P99Ms
	}
	b.ReportMetric(hbps/float64(b.N), "hb/s")
	b.ReportMetric(p99/float64(b.N), "p99-ms")
	b.ReportMetric(0, "ns/op") // wall-clock per op is not the figure of merit
}

func BenchmarkCapacityDirect(b *testing.B) {
	benchFleet(b, Config{
		UEs:      60,
		Profiles: []hbmsg.AppProfile{fastProfile(40 * time.Millisecond)},
		Duration: 400 * time.Millisecond,
	})
}

func BenchmarkCapacityRelayed(b *testing.B) {
	benchFleet(b, Config{
		UEs:        60,
		Relays:     2,
		RelayRatio: 0.5,
		Profiles:   []hbmsg.AppProfile{fastProfile(80 * time.Millisecond)},
		Duration:   600 * time.Millisecond,
		AckTimeout: 3 * time.Second,
	})
}

// reportPerHB reports the timed section's cost per heartbeat — time and the
// process's heap allocations. (ns/op and b.ReportAllocs count per b.N
// iteration, and an iteration here is a whole period.)
func reportPerHB(b *testing.B, hbs int) func() {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(hbs), "allocs/hb")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hbs), "ns/hb")
		b.ReportMetric(0, "ns/op")
	}
}

// BenchmarkServerBatch200k is the server half of the trunked path on its
// own: one connection offers 200k clients in 4096-heartbeat batches, the
// same IDs in the same order every period, and waits for every ack. An
// iteration is one period; the cold first period is spent before the
// timer starts. The server resolves every source through its presence
// rows, so no cap applies there; the link's own ack reader interns, and
// 200k sources are past its cap, so the tail of every period's acks
// decodes to a fresh string (the allocations per heartbeat left).
func BenchmarkServerBatch200k(b *testing.B) {
	const clients = 200_000
	period := batchPeriod(b, clients)
	link := dialServer(b)
	defer link.close()
	link.offer(b, period, clients)
	b.ResetTimer()
	report := reportPerHB(b, b.N*clients)
	for i := 0; i < b.N; i++ {
		link.offer(b, period, clients)
	}
	report()
}

// BenchmarkServerFirstPeriod is what BenchmarkServerBatch200k leaves out:
// the first period a fresh server sees, where every heartbeat is the first
// sight of its source at the decoder and in the presence table. An
// iteration offers one period over one connection of 33k sources — one of
// live_trunked's trunk → shard links — to a server started for it, off the
// clock.
func BenchmarkServerFirstPeriod(b *testing.B) {
	const clients = trunkedUsers / trunkedShards
	period := batchPeriod(b, clients)
	b.ResetTimer()
	report := reportPerHB(b, b.N*clients)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		link := dialServer(b)
		b.StartTimer()
		link.offer(b, period, clients)
		b.StopTimer()
		link.close()
		b.StartTimer()
	}
	report()
}

// batchPeriod encodes one period of clients' heartbeats as 4096-heartbeat
// batches, once: the heartbeats carry an hour's expiry and the server does
// not look at Seq beyond keeping its high-water mark.
func batchPeriod(b *testing.B, clients int) []byte {
	const perBatch = 4096
	var period []byte
	ids := fleetIDs(0, clients, 7)
	batch := &hbproto.Batch{Relay: "bench-trunk"}
	for start := 0; start < clients; start += perBatch {
		batch.HBs = batch.HBs[:0]
		for i := start; i < min(start+perBatch, clients); i++ {
			batch.HBs = append(batch.HBs, hbproto.Heartbeat{
				Src: ids.at(i), Seq: 1, App: "bench", Origin: time.Now(), Expiry: time.Hour, Pad: 54,
			})
		}
		var err error
		if period, err = hbproto.AppendFrame(period, batch); err != nil {
			b.Fatal(err)
		}
	}
	return period
}

// serverLink is one connection to a server started for it.
type serverLink struct {
	srv  *relaynet.Server
	conn net.Conn
	acks *hbproto.FrameReader
}

func dialServer(b *testing.B) *serverLink {
	srv := relaynet.NewServer()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		srv.Shutdown()
		b.Fatal(err)
	}
	return &serverLink{srv: srv, conn: conn, acks: hbproto.NewFrameReader(conn)}
}

func (l *serverLink) close() {
	_ = l.conn.Close()
	l.srv.Shutdown()
}

// offer writes one encoded period and waits for its clients' acks. Writer
// and reader run side by side, as a trunk's do: the server stops reading
// batches once its ack writes back up.
func (l *serverLink) offer(b *testing.B, period []byte, clients int) {
	wrote := make(chan error, 1)
	go func() {
		_, err := l.conn.Write(period)
		wrote <- err
	}()
	for acked := 0; acked < clients; {
		msg, err := l.acks.Next()
		if err != nil {
			b.Fatal(err)
		}
		acked += len(msg.(*hbproto.Ack).Refs)
	}
	if err := <-wrote; err != nil {
		b.Fatal(err)
	}
}

// One of live_trunked's two trunks: 100k users paced over 32 sub-ticks
// into a 3-shard cluster, ~33k users per shard connection.
const trunkedUsers, trunkedSlots, trunkedShards = 100_000, 32, 3

// sinkTrunk builds a paced trunk over a static ring of shards whose
// connections swallow every write, counted in writes, and acknowledge its
// frames.
func sinkTrunk(tb testing.TB, users, slots, shards int) (tr *trunk, writes *atomic.Int64) {
	tb.Helper()
	nodes := make([]cluster.Node, shards)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: fmt.Sprintf("shard-%d", i), Addr: fmt.Sprintf("sink-%d", i)}
	}
	cc, err := cluster.NewStaticClient(cluster.Config{Epoch: 1, Nodes: nodes}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	writes = new(atomic.Int64)
	tr = newTestTrunk(tb, "unused", users, slots, func(string, string) (net.Conn, error) {
		return newSinkConn(writes), nil
	})
	tr.up.Cluster = cc
	tb.Cleanup(tr.Shutdown)
	return tr, writes
}

// trunkedRunner is a runner for live_trunked's fleet shape at the given
// size, trunkedSlots pace slots over a one-second period, never run.
func trunkedRunner(tb testing.TB, users, trunks int) *Runner {
	tb.Helper()
	r, err := New(Config{
		UEs: users, Trunks: trunks, TrunkPaceSlots: trunkedSlots,
		Profiles: []hbmsg.AppProfile{fastProfile(time.Second)}, Duration: time.Second,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// BenchmarkBuildTrunks is live_trunked's set-up without its cluster: 200k
// users named, indexed and paced over 2 trunks of 32 slots. An iteration
// is one buildTrunks.
func BenchmarkBuildTrunks(b *testing.B) {
	r := trunkedRunner(b, 2*trunkedUsers, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.buildTrunks()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*trunkedUsers), "ns/user")
}

// settleFresh acknowledges the trunk's last emission by hand.
func settleFresh(tr *trunk, at time.Time) {
	tr.mu.Lock()
	for _, k := range tr.fresh {
		tr.pending.Settle(k, at)
	}
	tr.mu.Unlock()
}

// BenchmarkTrunkEmit is the trunk's send half: one paced sub-tick of a
// live_trunked trunk in cluster mode — 1/32 of its users tracked, routed by
// their cached owners and written as one Batch write per shard into
// connections that swallow it. An iteration is one sub-tick; its
// heartbeats are settled off the clock, so the table stays at one in
// flight per user, as in the run.
func BenchmarkTrunkEmit(b *testing.B) {
	tr, _ := sinkTrunk(b, trunkedUsers, trunkedSlots, trunkedShards)
	now := time.Now()
	for s := range trunkedSlots { // warm: dials, owners, buffers
		lo, hi := tr.paced(s)
		tr.emit(lo, hi, now, nil)
		settleFresh(tr, now)
	}
	hbs := 0
	for i := 0; i < b.N; i++ {
		lo, hi := tr.paced(i % trunkedSlots)
		hbs += hi - lo
	}
	b.ResetTimer()
	report := reportPerHB(b, hbs)
	for i := 0; i < b.N; i++ {
		lo, hi := tr.paced(i % trunkedSlots)
		tr.emit(lo, hi, now, nil)
		b.StopTimer()
		settleFresh(tr, now)
		b.StartTimer()
	}
	report()
}

// BenchmarkTrunkAckPath is the trunk's ack half: one shard connection's
// worth of acks — the users of a live_trunked trunk that the first of 3
// shards owns — from the v2 ack frames' bytes through a FrameReader to the
// settled pending entries. Acks come back the way the run sends: sub-tick
// by sub-tick, one ack of the sub-tick's batch frame, and each hands
// onRefs the refs the trunk wrote in that batch, as the uplink's ack ring
// does, so settling reaches into the user and pending tables in the order
// the run does. An iteration is one period's acks; tracking the period's
// sends happens off the clock.
func BenchmarkTrunkAckPath(b *testing.B) {
	tr := newTestTrunk(b, "unused", trunkedUsers, trunkedSlots, nil)
	nodes := make([]string, trunkedShards)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("shard-%d", i)
	}
	ring, err := cluster.NewRing(nodes, 0)
	if err != nil {
		b.Fatal(err)
	}
	var owned []int                                // the shard's users, in ack order
	written := make([][]hbproto.Ref, trunkedSlots) // each sub-tick's batch, as written
	var period []byte
	for s := range trunkedSlots {
		lo, hi := tr.paced(s)
		for i := lo; i < hi; i++ {
			if ring.OwnerIndex(tr.ids.at(i)) == 0 {
				owned = append(owned, i)
				written[s] = append(written[s], hbproto.Ref{Src: tr.ids.at(i), Seq: 1, Handle: hbproto.Handle(i + 1)})
			}
		}
		if period, err = hbproto.AppendFrameV(period, hbproto.Version2, &hbproto.Ack{Frames: []uint32{uint32(s)}}); err != nil {
			b.Fatal(err)
		}
	}
	wire := bytes.NewReader(nil)
	fr := hbproto.NewFrameReader(wire)
	now := time.Now()
	settle := func() {
		// Every period acks seq 1 again: what is measured is the decode
		// and the settle, not the sequence bookkeeping.
		for _, i := range owned {
			tr.pending.Track(inflight.Key{Slot: i, Seq: 1}, now, true)
		}
		wire.Reset(period)
		b.StartTimer()
		for s := range trunkedSlots {
			msg, err := fr.Next()
			if err != nil {
				b.Fatal(err)
			}
			if f := msg.(*hbproto.Ack).Frames; len(f) != 1 || f[0] != uint32(s) {
				b.Fatal("not the ack of the sub-tick's batch")
			}
			tr.onRefs(written[s], now)
		}
		b.StopTimer()
		if n := tr.pending.Len(); n != 0 {
			b.Fatalf("%d acks did not settle", n)
		}
	}
	b.StopTimer()
	settle()
	b.ResetTimer()
	report := reportPerHB(b, b.N*len(owned))
	for i := 0; i < b.N; i++ {
		settle()
	}
	report()
}
