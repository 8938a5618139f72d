package relaynet

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/hbproto/hbprototest"
	"d2dhb/internal/session"
	"d2dhb/internal/trace"
)

// relayRig is a stepped relay wired to a shard that acknowledges every
// batch it reads and to UE connections whose far ends read their feedback:
// the relay's whole heartbeat path — intake, boundary flush, shard ack,
// feedback — with the test choosing the kernel instants. The test offers
// inputs as the UE readers do, so it runs each turn it starts; the shard's
// ack is run by whichever goroutine holds the relay when it arrives.
type relayRig struct {
	r      *RelayAgent
	ues    []*ueConn
	ids    []string
	fed    chan int // refs per Feedback frame a UE read
	period time.Duration
	k      int // periods run
}

func newRelayRig(tb testing.TB, ues int) *relayRig {
	tb.Helper()
	const period = time.Second
	shard, dialed := net.Pipe()
	r, err := NewRelayAgent(RelayAgentConfig{
		ID: "relay-1", App: "std", Period: period, Expiry: period, Capacity: ues + 1,
		Dial: func(string, string) (net.Conn, error) { return dialed, nil },
	})
	if err != nil {
		tb.Fatalf("NewRelayAgent: %v", err)
	}
	if r.up.Cluster, err = cluster.NewSingleNodeClient("shard-0"); err != nil {
		tb.Fatal(err)
	}
	r.epoch = time.Now()
	r.wake = time.AfterFunc(time.Hour, func() {})
	r.started = true
	var readers sync.WaitGroup
	tb.Cleanup(func() {
		r.Shutdown()
		_ = shard.Close()
		readers.Wait()
	})
	readers.Add(1)
	go func() { // the shard: acknowledge every batch, in one reused frame
		defer readers.Done()
		fr := hbproto.NewFrameReader(shard)
		var ack hbproto.Ack
		var out []byte
		for {
			msg, err := fr.Next()
			if err != nil {
				return
			}
			if _, ok := msg.(*hbproto.Batch); !ok {
				continue
			}
			ack.Frames = append(ack.Frames[:0], fr.Sum())
			if out, err = hbproto.AppendFrameV(out[:0], fr.Version(), &ack); err != nil {
				return
			}
			if _, err := shard.Write(out); err != nil {
				return
			}
		}
	}()
	rig := &relayRig{r: r, fed: make(chan int, ues), period: period}
	for i := 0; i < ues; i++ {
		near, far := net.Pipe()
		tb.Cleanup(func() { _ = near.Close(); _ = far.Close() })
		rig.ues = append(rig.ues, &ueConn{conn: near})
		rig.ids = append(rig.ids, fmt.Sprintf("ue-%02d", i))
		readers.Add(1)
		go func() { // the UE: report every Feedback frame
			defer readers.Done()
			fr := hbproto.NewFrameReader(far)
			for {
				msg, err := fr.Next()
				if err != nil {
					return
				}
				if fb, ok := msg.(*hbproto.Feedback); ok {
					rig.fed <- len(fb.Refs)
				}
			}
		}()
	}
	r.offer(input{}, nil) // opens the first period
	for _, uc := range rig.ues {
		r.offer(input{kind: inRegister, ue: uc}, nil)
	}
	return rig
}

// idle waits until no goroutine holds the relay: the shard's reader may
// still be finishing the turn of the last ack, and inputs offered
// meanwhile are that turn's to run.
func (g *relayRig) idle() {
	for {
		g.r.in.mu.Lock()
		running := g.r.in.running
		g.r.in.mu.Unlock()
		if !running {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// heartbeat offers UE i's heartbeat of the current period.
func (g *relayRig) heartbeat(i int) {
	at := time.Duration(g.k)*g.period + time.Duration(i+1)*time.Microsecond
	g.r.offer(ueHeartbeat(at, g.ues[i], &hbproto.Heartbeat{
		Src: g.ids[i], Seq: uint64(g.k + 1), App: "std", Expiry: time.Hour, Pad: 54,
	}, 0), nil)
}

// cycle offers one heartbeat per UE, then the boundary tick that flushes
// them, and waits until every UE has read its feedback.
func (g *relayRig) cycle() {
	for i := range g.ues {
		g.heartbeat(i)
	}
	g.k++
	g.r.offer(input{at: time.Duration(g.k) * g.period}, nil)
	for range g.ues {
		<-g.fed
	}
}

// TestRelayHeartbeatZeroAllocs: once the relay's buffers have grown, a UE
// heartbeat costs no allocation anywhere on its path — not in the intake,
// nor in the boundary flush, the shard's ack or the feedback write it
// shares with the period's other heartbeats.
func TestRelayHeartbeatZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	const ues = 8
	g := newRelayRig(t, ues)
	for i := 0; i < 4; i++ {
		g.cycle()
	}
	if n := testing.AllocsPerRun(50, g.cycle); n != 0 {
		t.Errorf("a period of %d relayed heartbeats allocates %.0f times", ues, n)
	}
	i := 0
	if n := testing.AllocsPerRun(ues-1, func() { g.heartbeat(i); i++ }); n != 0 {
		t.Errorf("a UE heartbeat into the window allocates %.0f times", n)
	}
	g.idle()
	if st := g.r.relay.Stats(); st.AcksSent != 55*ues || st.AckFailures != 0 || g.r.relay.Awaiting() != ues {
		t.Fatalf("relay stats %+v with %d routes awaiting, want every heartbeat of 55 periods fed back and %d waiting", st, g.r.relay.Awaiting(), ues)
	}
}

// BenchmarkRelayHeartbeat is the relay hop per heartbeat: 32 UEs' heartbeats
// a period, each offered as a UE reader offers it, flushed at the boundary,
// acknowledged by the shard and fed back.
func BenchmarkRelayHeartbeat(b *testing.B) {
	const ues = 32
	g := newRelayRig(b, ues)
	g.cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += ues {
		g.cycle()
	}
}

// exclusiveTracer counts trace events emitted while another goroutine is
// emitting one: the relay emits from inside device.Relay, so an overlap
// means two goroutines ran it at once.
type exclusiveTracer struct {
	inside, overlaps, events atomic.Int64
}

func (e *exclusiveTracer) Emit(trace.Event) {
	if e.inside.Add(1) != 1 {
		e.overlaps.Add(1)
	}
	e.events.Add(1)
	runtime.Gosched()
	e.inside.Add(-1)
}

// TestRelayOneRunner offers a relay input from many UE readers at once
// while its shard acks capacity flushes: every heartbeat reaches the
// scheduler, and no two goroutines are ever inside the relay together
// (under -race, the detector checks the kernel and the relay's state too).
// The UEs pause a fifth of the relay's 270 s period: all 640 heartbeats
// arrive in the first window, whose four fill it.
func TestRelayOneRunner(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		const ues, beats = 16, 40
		var (
			period = 270 * time.Second
			expiry = 300 * time.Second
		)
		s := startServer(t, nw)
		var tr exclusiveTracer
		r, err := NewRelayAgent(RelayAgentConfig{
			ID: "relay-1", App: "std", Period: period, Expiry: expiry, Pad: 54,
			Capacity: 4, Tracer: &tr, Listen: nw.Listen, Dial: nw.Dial,
		})
		if err != nil {
			t.Fatalf("NewRelayAgent: %v", err)
		}
		if err := r.Start("127.0.0.1:0", s.Addr()); err != nil {
			t.Fatalf("relay Start: %v", err)
		}
		t.Cleanup(r.Shutdown)

		var wg sync.WaitGroup
		for i := 0; i < ues; i++ {
			conn, err := nw.Dial("tcp", r.Addr())
			if err != nil {
				t.Fatalf("dial relay: %v", err)
			}
			t.Cleanup(func() { _ = conn.Close() })
			go drain(conn) // the relay's feedback writes must not back up
			id := fmt.Sprintf("ue-r%02d", i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := hbprototest.WriteFrame(conn, &hbproto.Register{ID: id, Role: hbproto.RoleUE, App: "std", Period: expiry, Expiry: expiry}); err != nil {
					t.Errorf("register %s: %v", id, err)
					return
				}
				for k := 1; k <= beats; k++ {
					hb := &hbproto.Heartbeat{Src: id, Seq: uint64(k), App: "std", Origin: time.Now(), Expiry: expiry, Pad: 54}
					if err := hbprototest.WriteFrame(conn, hb); err != nil {
						t.Errorf("%s send %d: %v", id, k, err)
						return
					}
					if k%8 == 0 {
						time.Sleep(period / 5)
					}
				}
			}()
		}
		wg.Wait()
		await(t, 2*period, func() bool {
			st := r.Stats()
			return st.Collected+st.RejectedClosed+st.RejectedExpired == ues*beats && st.AcksSent == 4
		}, "every heartbeat reached the scheduler and feedback flowed")
		if n := tr.overlaps.Load(); n != 0 {
			t.Fatalf("%d of %d relay events emitted while another goroutine was inside the relay", n, tr.events.Load())
		}
		if st := r.Stats(); st.FlushesByCapacity == 0 {
			t.Fatalf("no capacity flush: %+v", st)
		}
	})
}

// stalledConn holds every Write until release is closed.
type stalledConn struct {
	net.Conn
	release <-chan struct{}
}

func (c stalledConn) Write(p []byte) (int, error) {
	<-c.release
	return c.Conn.Write(p)
}

// TestRelayInboxBoundUnderStalledShard stalls the relay's shard
// connection: the runner blocks in its first flush, the UE readers fill
// the inbox to its bound and wait there, and the UEs fall back. Once the
// shard takes writes again the relay catches up, and every heartbeat ends
// delivered — through the relay or the fallback — and acknowledged once.
func TestRelayInboxBoundUnderStalledShard(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		var rec trace.Recorder
		s := NewServer()
		s.SetTracer(&rec)
		ln, err := nw.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.StartListener(ln); err != nil {
			t.Fatalf("server Start: %v", err)
		}
		t.Cleanup(s.Shutdown)
		var (
			period = 270 * time.Second
			expiry = 300 * time.Second
		)
		release := make(chan struct{})
		r, err := NewRelayAgent(RelayAgentConfig{
			ID: "stall-relay", App: "std", Period: period, Expiry: expiry, Pad: 54, Capacity: 256,
			Listen: nw.Listen,
			Dial: func(network, addr string) (net.Conn, error) {
				c, err := nw.Dial(network, addr)
				if err != nil {
					return nil, err
				}
				return stalledConn{Conn: c, release: release}, nil
			},
		})
		if err != nil {
			t.Fatalf("NewRelayAgent: %v", err)
		}
		if err := r.Start("127.0.0.1:0", s.Addr()); err != nil {
			t.Fatalf("relay Start: %v", err)
		}
		t.Cleanup(r.Shutdown)
		var once sync.Once
		unstall := func() { once.Do(func() { close(release) }) }
		t.Cleanup(unstall) // before Shutdown, which waits for the stalled runner

		var clients []*UEClient
		for i := 0; i < 8; i++ {
			clients = append(clients, startChaosUE(t, &rec, fmt.Sprintf("stall-ue-%d", i), r.Addr(), s.Addr(), period, expiry, nw.Dial))
		}
		// The runner cannot take from the inbox while the shard stalls, so
		// the inbox only fills. In the bubble each period adds the UEs'
		// registers and heartbeats and each lapse the links their fallbacks
		// closed: by the fifth send, at 1 080 s, it is full.
		depth := func() int {
			r.in.mu.Lock()
			defer r.in.mu.Unlock()
			return len(r.in.entries)
		}
		// Its depth never falls while the shard stalls: at 20:00 it is
		// exactly the bound, not past it.
		await(t, 20*time.Minute, func() bool { return depth() == inboxCap },
			fmt.Sprintf("the inbox filled to its bound %d, and no further, while the shard stalled", inboxCap))
		unstall()
		await(t, 20*time.Minute, func() bool { return r.Stats().ForwardedSent > 0 }, "the relay forwards once the shard takes writes")
		generated := generatedSet(&rec)
		await(t, 25*time.Minute, func() bool { return len(generated) > 0 && len(lost(&rec, generated)) == 0 },
			"zero lost heartbeats (fallback fired for every unacked send)")
		assertNoDuplicateAcks(t, &rec)
		if len(rec.ByKind(trace.KindFallback)) == 0 {
			t.Error("no UE fell back while the relay was stalled: the scenario never held the readers")
		}
		for _, u := range clients {
			if st := u.Stats(); st.Timeouts != 0 {
				t.Errorf("UE stats %+v: a heartbeat was written off", st)
			}
		}
	})
}

// TestRelayOutlastsAUEThatNeverReads: one UE registers with the relay and
// sends every period but never reads its feedback. Over net.Pipe the
// relay's first feedback write to it cannot complete, and that write runs
// on the relay's runner: without a deadline no other UE was collected,
// flushed or fed back again, and each fell back to the server a window
// after its next send. With one, the write gives up after
// feedbackWriteTimeout, the deaf UE loses its connection, and every other
// UE's heartbeat is fed back within the period it was sent in.
func TestRelayOutlastsAUEThatNeverReads(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		const ues = 4
		period, expiry := 270*time.Second, 300*time.Second
		srv := startServer(t, nw)
		r, err := NewRelayAgent(RelayAgentConfig{
			ID: "relay-1", App: "std", Period: period, Expiry: expiry, Pad: 54, Capacity: 2 * ues,
			Listen: nw.Listen, Dial: nw.Dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start("127.0.0.1:0", srv.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Shutdown)
		deaf, err := nw.Dial("tcp", r.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = deaf.Close() }) // before Shutdown, which waits for a runner held by it
		go func() {
			if hbprototest.WriteFrame(deaf, &hbproto.Register{ID: "ue-deaf", Role: hbproto.RoleUE, App: "std", Period: period, Expiry: expiry}) != nil {
				return
			}
			for seq := uint64(1); ; seq++ {
				hb := &hbproto.Heartbeat{Src: "ue-deaf", Seq: seq, App: "std", Origin: time.Now(), Expiry: expiry, Pad: 54}
				if hbprototest.WriteFrame(deaf, hb) != nil {
					return
				}
				time.Sleep(period)
			}
		}()
		clients := make([]*UEClient, ues)
		for i := range clients {
			clients[i] = startUE(t, nw, ueConfig(fmt.Sprintf("ue-%d", i), r.Addr(), srv.Addr(), period, expiry))
		}
		time.Sleep(4*period + period/2)
		for i, u := range clients {
			// The heartbeat sent in the current period is still collected.
			if st := u.Stats(); st.ViaRelay < 4 || st.FeedbackAcks+1 < st.ViaRelay || st.FallbackResends != 0 {
				t.Errorf("ue-%d: %d sent via the relay, %d fed back, %d fallback resends; want all but the last fed back and none resent",
					i, st.ViaRelay, st.FeedbackAcks, st.FallbackResends)
			}
		}
		r.mu.Lock()
		held := len(r.ues)
		r.mu.Unlock()
		if held != ues {
			t.Errorf("the relay holds %d UE connections, want %d: the deaf UE's dropped", held, ues)
		}
	})
}

// TestForwardPartitionMatchesGroupSorted: a flush over a 3-node view sends
// each shard the sub-batch Ring.GroupSorted gives it — shards in the ring's
// node order, heartbeats in input order within a shard.
func TestForwardPartitionMatchesGroupSorted(t *testing.T) {
	timed(t, func(t *testing.T, _ network) {
		nodes := []cluster.Node{{ID: "shard-a", Addr: "a"}, {ID: "shard-b", Addr: "b"}, {ID: "shard-c", Addr: "c"}}
		cc, err := cluster.NewStaticClient(cluster.Config{Epoch: 1, Nodes: nodes}, 0)
		if err != nil {
			t.Fatalf("NewStaticClient: %v", err)
		}
		type sent struct {
			addr string
			srcs []string
		}
		var mu sync.Mutex
		var order []string           // shard addresses in the order the relay wrote to them
		got := map[string][]string{} // the sources each shard received
		var readers sync.WaitGroup
		dial := func(_, addr string) (net.Conn, error) {
			shard, dialed := net.Pipe()
			readers.Add(1)
			go func() {
				defer readers.Done()
				fr := hbproto.NewFrameReader(shard)
				for {
					msg, err := fr.Next()
					if err != nil {
						return
					}
					if b, ok := msg.(*hbproto.Batch); ok {
						mu.Lock()
						for _, hb := range b.HBs {
							got[addr] = append(got[addr], hb.Src)
						}
						mu.Unlock()
					}
				}
			}()
			return orderedConn{Conn: dialed, wrote: func() {
				mu.Lock()
				if len(order) == 0 || order[len(order)-1] != addr {
					order = append(order, addr)
				}
				mu.Unlock()
			}}, nil
		}
		t.Cleanup(readers.Wait) // after Shutdown has closed the relay's ends
		period, expiry := 270*time.Second, 300*time.Second
		r := steppedRelay(t, RelayAgentConfig{
			ID: "relay-1", App: "std", Period: period, Expiry: expiry, Capacity: 64, Dial: dial,
		}, "unused")
		r.up.Cluster = cc

		r.step(&input{at: 0})
		uc := &ueConn{}
		var keys []string
		for i := 0; i < 40; i++ {
			src := fmt.Sprintf("ue-%03d", (i*37)%100)
			keys = append(keys, src)
			r.step(beatAt(time.Duration(i+1)*time.Millisecond, uc, hbproto.Heartbeat{Src: src, Seq: uint64(i + 1), App: "std", Expiry: expiry}))
		}
		keys = append(keys, "relay-1") // the own heartbeat rides last
		r.step(&input{at: period})

		var want []sent
		for _, g := range cc.View().Ring().GroupSorted(keys) {
			s := sent{addr: g.Shard[len("shard-"):]}
			for _, i := range g.Idxs {
				s.srcs = append(s.srcs, keys[i])
			}
			want = append(want, s)
		}
		if len(want) != 3 {
			t.Fatalf("the keys span %d shards, want all 3 so the partition is exercised", len(want))
		}
		await(t, 0, func() bool {
			mu.Lock()
			defer mu.Unlock()
			n := 0
			for _, srcs := range got {
				n += len(srcs)
			}
			return n == len(keys)
		}, "every shard received its sub-batch")
		mu.Lock()
		defer mu.Unlock()
		for i, w := range want {
			if i >= len(order) || order[i] != w.addr || !slices.Equal(got[w.addr], w.srcs) {
				t.Fatalf("shards written in order %v and sent %v, want GroupSorted's partition %v", order, got, want)
			}
		}
	})
}

// TestRelayFlushOverAFrame: a window of more heartbeats than one frame
// holds — one heartbeat encodes to 34 B, so a single Batch of more than
// 30 840 exceeds hbproto.MaxFrameSize — reaches its shard whole, in
// ⌈n / session.MaxBatch⌉ Batch frames and one Write.
func TestRelayFlushOverAFrame(t *testing.T) {
	const capacity = 40_000
	var writes atomic.Int32
	var frames, hbs atomic.Int64
	var readers sync.WaitGroup
	dial := func(string, string) (net.Conn, error) {
		shard, dialed := net.Pipe()
		readers.Add(1)
		go func() {
			defer readers.Done()
			fr := hbproto.NewFrameReader(shard)
			for {
				msg, err := fr.Next()
				if err != nil {
					return
				}
				if b, ok := msg.(*hbproto.Batch); ok {
					frames.Add(1)
					hbs.Add(int64(len(b.HBs)))
				}
			}
		}()
		return &orderedConn{Conn: dialed, wrote: func() { writes.Add(1) }}, nil
	}
	t.Cleanup(readers.Wait) // after Shutdown has closed the relay's end
	r := steppedRelay(t, RelayAgentConfig{
		ID: "relay-1", App: "std", Period: time.Minute, Expiry: time.Minute, Capacity: capacity, Dial: dial,
	}, "shard-0")

	r.step(&input{at: 0})
	uc := &ueConn{}
	for i := 0; i < capacity-1; i++ {
		r.step(beatAt(time.Millisecond, uc, hbproto.Heartbeat{Src: fmt.Sprintf("ue-%05d", i), Seq: 1, App: "std", Expiry: time.Minute}))
	}
	r.step(&input{at: time.Minute}) // the window closes with the relay's own heartbeat

	eventually(t, 5*time.Second, func() bool { return hbs.Load() == capacity }, "the shard received the whole flush")
	if st := r.relay.Stats(); st.Flushes != 1 || st.ForwardedSent != capacity-1 || r.Stats().DroppedNoShard != 0 {
		t.Fatalf("relay stats %+v, %d dropped; want one flush of %d UE heartbeats and nothing dropped", st, r.Stats().DroppedNoShard, capacity-1)
	}
	want := int64((capacity + session.MaxBatch - 1) / session.MaxBatch)
	if got := frames.Load(); got != want {
		t.Errorf("the flush took %d Batch frames, want %d", got, want)
	}
	if got := writes.Load(); got != 2 {
		t.Errorf("%d Writes to the shard, want the Register's and the flush's", got)
	}
}

// orderedConn reports each Write before making it.
type orderedConn struct {
	net.Conn
	wrote func()
}

func (c orderedConn) Write(p []byte) (int, error) {
	c.wrote()
	return c.Conn.Write(p)
}
