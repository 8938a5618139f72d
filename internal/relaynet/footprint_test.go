package relaynet

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"d2dhb/internal/cluster"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/hbproto/hbprototest"
	"d2dhb/internal/stacktest"
)

// TestDirectUEFootprint pins what one connected direct UE holds on the live
// heap, its own end and the server's together, once its first heartbeat is
// acknowledged: the UE, its slot and reader, the server's connection state
// and its presence record. Socket-per-UE fleets are thousands of such
// pairs, mostly idle, so what a pair holds is what a fleet holds. Goroutine
// stacks are not on the heap and not counted. It reads ~4.2 KB (Go 1.24,
// amd64) with a 64 B frame buffer and no string map at either end; one
// map per reader, or bufio's 512 B buffers, crosses the ceiling. With the
// fleet's slot readers and server handlers parked, new goroutines must
// still start at 2 KB: the stack budget (DESIGN.md). Each UE sends a
// second heartbeat, which the server's reader resolves through the
// presence index rather than a first sight, and the pairs' stacks must
// stay within stackCeiling: a server handler whose decode of that
// heartbeat ran past 2 KB keeps a 4 KB stack, ~2 KB more per UE. It reads
// ~4.3–4.6 KB of stack per UE.
func TestDirectUEFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the connections' footprint")
	}
	const ues, ceiling, stackCeiling = 200, 4400, 5120 // bytes per connected UE
	s := startServer(t, loopback{})
	apps := []UEApp{{Name: "std", Period: time.Hour, Expiry: time.Minute, Pad: 54}}
	live := func() (heap, stack uint64) {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // a second cycle empties the pools' victim caches too
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, ms.StackInuse
	}
	heap0, stack0 := live()
	fleet := make([]*UEClient, ues)
	for i := range fleet {
		u, err := NewUEClient(UEClientConfig{ID: fmt.Sprintf("ue-%04d", i), Apps: apps, ServerAddr: s.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		fleet[i] = u
	}
	t.Cleanup(func() {
		for _, u := range fleet {
			u.Shutdown()
		}
	})
	for seq := uint64(1); seq <= 2; seq++ {
		for _, u := range fleet {
			u.Send(0, seq, time.Now())
		}
		eventually(t, 5*time.Second, func() bool {
			for _, u := range fleet {
				if u.Stats().Acked != uint32(seq) {
					return false
				}
			}
			return true
		}, fmt.Sprintf("every UE's heartbeat %d acknowledged", seq))
	}
	heap1, stack1 := live()
	per, stack := float64(heap1-heap0)/ues, (float64(stack1)-float64(stack0))/ues
	runtime.KeepAlive(fleet)
	t.Logf("a connected direct UE holds %.0f B of live heap and %.0f B of goroutine stack, both ends", per, stack)
	if per > ceiling {
		t.Errorf("a connected direct UE holds %.0f B of live heap, ceiling %d", per, ceiling)
	}
	if stack > stackCeiling {
		t.Errorf("a connected direct UE holds %.0f B of goroutine stack, ceiling %d", stack, stackCeiling)
	}
	if start := stacktest.StartingSize(t); start != stacktest.Budget {
		t.Errorf("with %d direct UEs parked, new goroutines start with %d B of stack, want %d",
			ues, start, stacktest.Budget)
	}
}

// TestRelayReaderFootprint pins the stack a relay's UE readers keep, in a
// population of them alone: raw connections into one relay, each
// registering and sending one heartbeat, over a few periods of flushes and
// feedback, so every reader has run turns. The readers start at 2 KB, and
// one whose turn runs deeper than its stack keeps the stack it grew to:
// the steady state runs no GC, and a GC shrinks only a stack less than a
// quarter used. It reads ~2.3 KB per connection with the turn served from
// ueReader's frame, and ~4.1 KB while it ran below ueFrame's 408 B (Go
// 1.24, amd64). A reader parked deeper than 1 120 B moves every new
// goroutine of the process to a 4 KB stack; it read 4 096 while ueReader
// kept its loop body in its own 536 B frame. The period case's relay
// flushes at its period ends, mostly on its wall timer; the capacity
// case's at M = 4, in the turn of every fourth heartbeat, which is
// usually its reader's. Each logs how many turns a reader ran that
// flushed, and each such reader may keep 2 KB more: the capacity case
// reads ~2.7 KB per connection. Goroutines that exited earlier in a
// process leave stacks behind that the readers would reuse, so each case
// runs in a process of its own (stacktest.Alone) and reads the same after
// other tests and under -count.
func TestRelayReaderFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime deepens every frame")
	}
	const ues, ceiling = 500, 2560 // ceiling: bytes of stack per connection
	for _, c := range []struct {
		name     string
		capacity int // M
		wave     int // UEs that send in one period
		period   time.Duration
	}{{"period", ues, ues / 5, 50 * time.Millisecond}, {"capacity", 4, 4, 5 * time.Millisecond}} {
		t.Run(c.name, func(t *testing.T) {
			if stacktest.Alone(t) {
				return
			}
			s := startServer(t, loopback{})
			r := startRelay(t, loopback{}, s.Addr(), c.period, time.Minute, c.capacity)
			stacktest.ShallowStart(t)
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := range ues {
				conn, err := net.Dial("tcp", r.Addr())
				if err != nil {
					t.Fatalf("dial relay: %v", err)
				}
				t.Cleanup(func() { _ = conn.Close() })
				id := fmt.Sprintf("ue-%04d", i)
				for _, msg := range []hbproto.Message{
					&hbproto.Register{ID: id, Role: hbproto.RoleUE, App: "std", Period: c.period, Expiry: time.Minute},
					&hbproto.Heartbeat{Src: id, Seq: 1, App: "std", Origin: time.Now(), Expiry: time.Minute, Pad: 54},
				} {
					if err := hbprototest.WriteFrame(conn, msg); err != nil {
						t.Fatalf("%s: %v", id, err)
					}
				}
				// Each wave is fed back, and the relay opens a new window,
				// before the next one dials: the readers run turns over
				// several periods, and none finds the window closed.
				if n := i + 1; n%c.wave == 0 {
					eventually(t, 5*time.Second, func() bool { return r.Stats().AcksSent == n },
						fmt.Sprintf("feedback for the first %d UEs", n))
					own := r.Stats().OwnHeartbeats
					eventually(t, 5*time.Second, func() bool { return r.Stats().OwnHeartbeats > own },
						fmt.Sprintf("a period after the first %d UEs", n))
				}
			}
			runtime.GC()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			start := stacktest.StartingSize(t)
			st, flushTurns := r.Stats(), r.ReaderFlushTurns()
			per := (float64(after.StackInuse) - float64(before.StackInuse)) / ues
			t.Logf("%d relayed UEs, M = %d: %d flushes, %d of them in a reader's turn; %.0f B of goroutine stack per connection; new goroutines start with %d B",
				ues, c.capacity, st.Flushes, flushTurns, per, start)
			// A flush writes upstream from below the turn, deeper than a
			// 2 KB stack holds, so a reader that ran one keeps 4 KB.
			if limit := ceiling + float64(flushTurns*stacktest.Budget)/ues; per > limit {
				t.Errorf("%d relay readers keep %.0f B of goroutine stack per connection, ceiling %.0f (%d B, and %d B for each of %d flush turns)",
					ues, per, limit, ceiling, stacktest.Budget, flushTurns)
			}
			if start != stacktest.Budget {
				t.Errorf("with %d relay readers parked, new goroutines start with %d B of stack, want %d",
					ues, start, stacktest.Budget)
			}
		})
	}
}

// TestServerSourceFootprint pins the live heap the server holds per client
// that reaches it over one batch connection — a trunk → shard link at
// live_trunked's scale: the client's presence row, its ID and index slot,
// and whatever the connection keeps per source it has decoded. The
// connection stays open while the heap is read, so what it holds counts.
// It reads ~74 B (Go 1.24, amd64): the 40 B row, the 11 B arena entry of
// a 10-byte ID, its index slot and the stripes' partly filled last pages
// and chunks. A 24 B key beside each row and a heap string per ID read
// ~108 B. The row's size is pinned apart, so a per-client field added to
// it fails here whatever the heap reads.
func TestServerSourceFootprint(t *testing.T) {
	if size := unsafe.Sizeof(row{}); size > 40 {
		t.Errorf("a presence row is %d B, ceiling 40", size)
	}
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the server's footprint")
	}
	const sources, perBatch, ceiling = 100_000, 4096, 80 // bytes per source
	s := startServer(t, loopback{})
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	heap0 := live()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	// The acks' sources resolve to nothing on this side: the client keeps
	// no table of its own to count against the server.
	acks := hbproto.NewTableReader(conn, noSources{})
	batch := &hbproto.Batch{Relay: "trunk-1", HBs: make([]hbproto.Heartbeat, 0, perBatch)}
	var frame []byte
	for start := 0; start < sources; start += perBatch {
		batch.HBs = batch.HBs[:0]
		for i := start; i < min(start+perBatch, sources); i++ {
			batch.HBs = append(batch.HBs, hbproto.Heartbeat{
				Src: fmt.Sprintf("ue-%07d", i), Seq: 1, App: "std", Origin: time.Now(), Expiry: time.Hour,
			})
		}
		if frame, err = hbproto.AppendFrame(frame[:0], batch); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for n := len(batch.HBs); n > 0; {
			msg, err := acks.Next()
			if err != nil {
				t.Fatalf("waiting for %d acks: %v", n, err)
			}
			n -= len(msg.(*hbproto.Ack).Refs)
		}
	}
	batch, frame = nil, nil
	if n, _ := s.presenceOccupancy(); n != sources {
		t.Fatalf("%d clients tracked, want %d", n, sources)
	}
	per := float64(live()-heap0) / sources
	runtime.KeepAlive(conn)
	t.Logf("the server holds %.1f B of live heap per source of a batch connection", per)
	if per > ceiling {
		t.Errorf("the server holds %.1f B of live heap per source, ceiling %d", per, ceiling)
	}
}

// TestPresenceGrowthInPlace pins how the presence stripes grow: adding
// 100 k sources to one server never copies a stripe's rows once its first
// page is full — its row 0 and the first row of its second page stay where
// they were — and the adds allocate less than twice the bytes of the rows
// and arena entries they add, the stripes' indexes included. Grown by
// copying, the columns allocate ~2.8 times their bytes (Go 1.24, amd64),
// and the live stack's steady state, which runs no GC, keeps the arrays
// they grew out of.
func TestPresenceGrowthInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the stripes' growth")
	}
	const sources, factor = 100_000, 2
	s := NewServer()
	ids := make([]string, sources)
	for i := range ids {
		ids[i] = fmt.Sprintf("ue-%07d", i)
	}
	add := func(ids []string) {
		for _, id := range ids {
			sh, _, _ := s.lockRow(id)
			sh.mu.Unlock()
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	add(ids[:sources/3]) // ~520 sources a stripe: every first page full
	var pinned [presenceShardCount][2]*row
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.n <= pageRows {
			t.Fatalf("stripe %d holds %d rows after %d sources, want more than a page", i, sh.n, sources/3)
		}
		pinned[i][0] = sh.at(0)
		pinned[i][1] = sh.at(pageRows)
	}
	add(ids[sources/3:])
	runtime.ReadMemStats(&after)
	for i := range s.shards {
		r0 := s.shards[i].at(0)
		p1 := s.shards[i].at(pageRows)
		if r0 != pinned[i][0] || p1 != pinned[i][1] {
			t.Fatalf("stripe %d moved its rows while it grew", i)
		}
	}
	if n, _ := s.presenceOccupancy(); n != sources {
		t.Fatalf("%d clients tracked, want %d", n, sources)
	}
	own := sources * unsafe.Sizeof(row{})
	for i := range s.shards {
		own += uintptr(s.shards[i].ids.used)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d sources allocated %.2f times their rows' and IDs' %d B", sources, float64(grew)/float64(own), own)
	if grew > factor*uint64(own) {
		t.Errorf("%d sources allocated %d B, more than %d times their rows' and IDs' %d B", sources, grew, factor, own)
	}
}

// TestServerFirstPeriodAllocs pins what a server's cold first period
// allocates: 100 k sources it has never seen, in v2 batches of 4 096 over
// one connection's reader, allocate the arena chunks, row pages and index
// tables the stripes grow plus a fixed slack, and no string per source. A
// first sight whose stripe's last chunk was full went to the heap while
// only add grew the arena: ~28 k strings for the 100 k sources.
func TestServerFirstPeriodAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the server's")
	}
	// slack is what the period allocates besides the chunks and pages:
	// each stripe's index tables, page-0 rows and lists of chunks and
	// pages doubling (~30 allocations a stripe at ~1 560 sources), the
	// reader's buffer, the batch's heartbeats and the acks pending.
	const sources, perBatch, slack = 100_000, 4096, 40 * presenceShardCount
	var period []byte
	batch := &hbproto.Batch{Relay: "first-trunk", HBs: make([]hbproto.Heartbeat, 0, perBatch)}
	for start := 0; start < sources; start += perBatch {
		batch.HBs = batch.HBs[:0]
		for i := start; i < min(start+perBatch, sources); i++ {
			batch.HBs = append(batch.HBs, hbproto.Heartbeat{
				Src: fmt.Sprintf("loadue-%06d", i), Seq: 1, App: "bench", Origin: time.Now(), Expiry: time.Hour, Pad: 54,
			})
		}
		var err error
		if period, err = hbproto.AppendFrameV(period, hbproto.Version2, batch); err != nil {
			t.Fatal(err)
		}
	}
	s := NewServer()
	cs := s.newConnState(&s.stripes[0])
	fr := hbproto.NewTableReader(bytes.NewReader(period), cs)
	var before, after runtime.MemStats
	runtime.GC() // a cycle under way would allocate beside the reader
	runtime.ReadMemStats(&before)
	for {
		msg, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.handleMessage(cs, msg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n, _ := s.presenceOccupancy(); n != sources {
		t.Fatalf("%d clients tracked, want %d", n, sources)
	}
	columns := 0
	for i := range s.shards {
		columns += len(s.shards[i].ids.chunks) + len(s.shards[i].pages)
	}
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("%d first sights allocated %d times: %d chunks and pages, %d more", sources, mallocs, columns, int(mallocs)-columns)
	if mallocs > uint64(columns+slack) {
		t.Errorf("%d first sights allocated %d times, more than their %d chunks and pages and %d slack", sources, mallocs, columns, slack)
	}
}

// TestExportPresenceSizedOnce pins what a drain's snapshot allocates: the
// entries, sized once for the clients the stripes hold, and no ID, since
// each entry's aliases its stripe's arena. Appended into a nil slice, the
// snapshot of a 67 k-client shard (~3.7 MB) grew by doubling, allocating
// about twice its size.
func TestExportPresenceSizedOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the snapshot's")
	}
	const clients = 50_000
	s := NewServer()
	for i := 0; i < clients; i++ {
		sh, _, _ := s.lockRow(fmt.Sprintf("loadue-%06d", i))
		sh.mu.Unlock()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rows := s.ExportPresence()
	runtime.ReadMemStats(&after)
	if len(rows) != clients {
		t.Fatalf("exported %d clients, want %d", len(rows), clients)
	}
	want := float64(clients * unsafe.Sizeof(cluster.PresenceEntry{}))
	grew := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("a snapshot of %d clients allocated %.0f B in %d allocations, %.3f times its entries", clients, grew, after.Mallocs-before.Mallocs, grew/want)
	if grew > 1.1*want {
		t.Errorf("a snapshot of %d clients allocated %.0f B, more than 1.1 times its entries' %.0f B", clients, grew, want)
	}
}

// BenchmarkServerTrunkBatch is the server's side of a trunk → shard link
// at live_trunked's scale, on its own: one connection offers 200 k sources
// ("loadue-%06d", 13 B) in v2 batches of 4096 heartbeats, the same IDs in
// the same order every period, and waits for the frames' acks. "first" is
// the period a fresh server sees, every heartbeat a first sight; "steady"
// is every later one. Each reports the time per heartbeat and the live
// heap the server holds per source after the timed periods (B/source),
// connection included.
func BenchmarkServerTrunkBatch(b *testing.B) {
	const sources, perBatch = 200_000, 4096
	var period []byte
	frames := 0
	batch := &hbproto.Batch{Relay: "bench-trunk", HBs: make([]hbproto.Heartbeat, 0, perBatch)}
	for start := 0; start < sources; start += perBatch {
		batch.HBs = batch.HBs[:0]
		for i := start; i < min(start+perBatch, sources); i++ {
			batch.HBs = append(batch.HBs, hbproto.Heartbeat{
				Src: fmt.Sprintf("loadue-%06d", i), Seq: 1, App: "bench", Origin: time.Now(), Expiry: time.Hour, Pad: 54,
			})
		}
		var err error
		if period, err = hbproto.AppendFrameV(period, hbproto.Version2, batch); err != nil {
			b.Fatal(err)
		}
		frames++
	}
	batch = nil
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	type link struct {
		s    *Server
		conn net.Conn
		acks *hbproto.FrameReader
	}
	open := func(b *testing.B) *link {
		s := NewServer()
		if err := s.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			s.Shutdown()
			b.Fatal(err)
		}
		acks := hbproto.NewFrameReader(conn)
		acks.Expect(hbproto.Version2)
		return &link{s: s, conn: conn, acks: acks}
	}
	closeLink := func(l *link) {
		_ = l.conn.Close()
		l.s.Shutdown()
	}
	// offer writes one period and waits for its frames' acks, writer and
	// reader side by side: the server stops reading once its acks back up.
	offer := func(b *testing.B, l *link) {
		wrote := make(chan error, 1)
		go func() {
			_, err := l.conn.Write(period)
			wrote <- err
		}()
		for acked := 0; acked < frames; {
			msg, err := l.acks.Next()
			if err != nil {
				b.Fatal(err)
			}
			acked += len(msg.(*hbproto.Ack).Frames)
		}
		if err := <-wrote; err != nil {
			b.Fatal(err)
		}
	}
	report := func(b *testing.B, l *link, heap0 uint64) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sources), "ns/hb")
		b.ReportMetric(float64(live()-heap0)/sources, "B/source")
		b.ReportMetric(0, "ns/op")
		runtime.KeepAlive(l)
	}
	b.Run("first", func(b *testing.B) {
		var l *link
		var heap0 uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if l != nil {
				closeLink(l)
			}
			heap0 = live()
			l = open(b)
			b.StartTimer()
			offer(b, l)
		}
		b.StopTimer()
		report(b, l, heap0)
		closeLink(l)
	})
	b.Run("steady", func(b *testing.B) {
		heap0 := live()
		l := open(b)
		offer(b, l)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			offer(b, l)
		}
		b.StopTimer()
		report(b, l, heap0)
		closeLink(l)
	})
}

// noSources is a SourceTable that knows no source.
type noSources struct{}

func (noSources) Source(hbproto.Handle, []byte) (string, hbproto.Handle) { return "", 0 }

// sinkConn swallows writes and produces no input until it is closed.
type sinkConn struct {
	net.Conn // nil: only the methods below are ever called
	closed   chan struct{}
	once     sync.Once
}

func newSinkConn() *sinkConn { return &sinkConn{closed: make(chan struct{})} }

func (c *sinkConn) Write(b []byte) (int, error) { return len(b), nil }
func (c *sinkConn) Read([]byte) (int, error)    { <-c.closed; return 0, io.EOF }
func (c *sinkConn) Close() error                { c.once.Do(func() { close(c.closed) }); return nil }

// TestUESendZeroAllocs pins a UE's send on a connected slot at zero
// allocations, direct and through a relay: the wire heartbeat is pooled,
// the pending entry is the table's inline one and the encode buffer the
// slot's pooled one. A fleet sends thousands a second.
func TestUESendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts the race runtime's allocations")
	}
	for _, c := range []struct {
		name  string
		relay string
	}{{"direct", ""}, {"relayed", "relay"}} {
		t.Run(c.name, func(t *testing.T) {
			conn := newSinkConn()
			u, err := NewUEClient(UEClientConfig{
				ID: "ue-alloc", Apps: []UEApp{{Name: "std", Period: time.Second, Expiry: time.Second, Pad: 54}},
				RelayAddr: c.relay, ServerAddr: "server",
				Dial: func(string, string) (net.Conn, error) { return conn, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(u.Shutdown)
			ack := u.onAck
			if c.relay != "" {
				ack = u.onFeedback
			}
			refs := []hbproto.Ref{{Src: "ue-alloc"}}
			seq := uint64(0)
			send := func() {
				seq++
				now := time.Now()
				u.Send(0, seq, now)
				refs[0].Seq = seq
				ack(refs, now)
			}
			send() // connects
			const runs = 200
			if allocs := testing.AllocsPerRun(runs, send); allocs > 0 {
				t.Errorf("a %s send allocates %.2f times, want 0", c.name, allocs)
			}
			st := u.Stats()
			if sent := st.Direct + st.ViaRelay; sent != runs+2 || st.Acked != sent || u.InFlight() != 0 {
				t.Fatalf("stats = %+v, want %d sends, each acknowledged", st, runs+2)
			}
		})
	}
}
