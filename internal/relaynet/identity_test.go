package relaynet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/hbproto/hbprototest"
	"d2dhb/internal/telemetry"
)

// rawClient is a bare hbproto connection to a server: tests that care which
// connection a frame travels on, and in what order, drive it by hand.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	fr   *hbproto.FrameReader
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &rawClient{t: t, conn: conn, fr: hbproto.NewFrameReader(conn)}
}

func (c *rawClient) send(msg hbproto.Message) {
	c.t.Helper()
	if err := hbprototest.WriteFrame(c.conn, msg); err != nil {
		c.t.Fatalf("write %v: %v", msg.Type(), err)
	}
}

// heartbeat sends one heartbeat and waits for its ack: the server has
// applied it, and every frame sent before it on this connection.
func (c *rawClient) heartbeat(id string, seq uint64) {
	c.t.Helper()
	c.send(&hbproto.Heartbeat{Src: id, Seq: seq, App: "std", Origin: time.Now(), Expiry: time.Minute})
	c.awaitAcks(1)
}

func (c *rawClient) awaitAcks(n int) {
	c.t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	for n > 0 {
		msg, err := c.fr.Next()
		if err != nil {
			c.t.Fatalf("waiting for %d more acks: %v", n, err)
		}
		ack, ok := msg.(*hbproto.Ack)
		if !ok {
			c.t.Fatalf("server sent %v, want ack", msg.Type())
		}
		n -= len(ack.Refs)
	}
}

// exported returns the server's presence row for id.
func exported(t *testing.T, s *Server, id string) cluster.PresenceEntry {
	t.Helper()
	for _, e := range s.ExportPresence() {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("no presence row for %s", id)
	return cluster.PresenceEntry{}
}

// TestRegisterUpdatesRecordInPlace pins that a Register never replaces a
// client's record: the delivered-sequence high-water mark survives it, and
// a connection that reached the record before the Register — its own or
// another connection's — keeps updating the one the table holds.
func TestRegisterUpdatesRecordInPlace(t *testing.T) {
	register := func(id string) *hbproto.Register {
		return &hbproto.Register{ID: id, Role: hbproto.RoleUE, App: "std", Period: time.Second, Expiry: time.Minute}
	}
	t.Run("one connection", func(t *testing.T) {
		s := startServer(t, loopback{})
		c := dialRaw(t, s.Addr())
		c.send(register("ue-1"))
		c.heartbeat("ue-1", 5)
		c.send(register("ue-1"))
		// A second client's heartbeat orders the check after the Register
		// without touching ue-1.
		c.heartbeat("ue-other", 1)
		if got := exported(t, s, "ue-1").MaxSeq; got != 5 {
			t.Fatalf("re-Register dropped the sequence high-water mark: MaxSeq = %d, want 5", got)
		}
		before := exported(t, s, "ue-1").LastSeenUnixNano
		c.heartbeat("ue-1", 6)
		row := exported(t, s, "ue-1")
		if row.MaxSeq != 6 || row.LastSeenUnixNano <= before {
			t.Fatalf("heartbeat after re-Register did not reach the table's record: %+v (lastSeen before %d)", row, before)
		}
		if st := s.Stats(); st.Registers != 2 {
			t.Fatalf("registers = %d, want 2", st.Registers)
		}
	})
	t.Run("two connections sharing a client", func(t *testing.T) {
		s := startServer(t, loopback{})
		a, b := dialRaw(t, s.Addr()), dialRaw(t, s.Addr())
		a.heartbeat("ue-1", 1) // a now reaches ue-1 by handle
		b.send(register("ue-1"))
		b.heartbeat("ue-1", 2)
		a.heartbeat("ue-1", 3)
		if got := exported(t, s, "ue-1").MaxSeq; got != 3 {
			t.Fatalf("MaxSeq = %d after heartbeats 1 (a), 2 (b), 3 (a) around b's Register, want 3", got)
		}
		if !s.Online("ue-1", time.Now()) {
			t.Fatal("ue-1 is offline: the row lost its deliveries")
		}
		if n := s.OnlineCount(time.Now()); n != 1 {
			t.Fatalf("OnlineCount = %d, want 1", n)
		}
	})
}

// TestForgottenClientReturnsThroughTheTable covers a row going stale behind
// a connection's back: a handoff forgets the client while the connection's
// reader still starts from its row. Its next heartbeat must land in the
// table again, and the guess that named the freed row must miss.
func TestForgottenClientReturnsThroughTheTable(t *testing.T) {
	s := startServer(t, loopback{})
	c := dialRaw(t, s.Addr())
	c.heartbeat("ue-1", 1)
	c.heartbeat("ue-1", 2)
	c.heartbeat("ue-1", 3)
	s.ForgetPresence([]string{"ue-1"})
	if s.Online("ue-1", time.Now()) {
		t.Fatal("forgotten client still online")
	}
	c.heartbeat("ue-1", 4)
	if !s.Online("ue-1", time.Now()) {
		t.Fatal("heartbeat after ForgetPresence updated a record outside the table")
	}
	if got := exported(t, s, "ue-1").MaxSeq; got != 4 {
		t.Fatalf("MaxSeq = %d, want 4 on the fresh record", got)
	}
	c.heartbeat("ue-1", 5)
	c.heartbeat("ue-1", 6)
	st := s.Stats()
	// The first heartbeat has no row to resolve to, and the second none to
	// start from, so both hash the ID; touch links the row after itself
	// then, and the third goes by the guess. The fourth's guess names the
	// freed row and misses, and the fifth starts over like the second;
	// the sixth goes by the guess again.
	if st.IDGuessHits != 2 || st.IDGuessMisses != 4 {
		t.Fatalf("id guess hits/misses = %d/%d, want 2/4", st.IDGuessHits, st.IDGuessMisses)
	}
}

// TestNoRowForAnUndeliveredSource pins that resolving a source is not
// delivering it: a frame the server rejects gives none of the sources it
// carries a presence row, although the connection's reader resolved every
// one of them through the server's table before the frame was refused.
func TestNoRowForAnUndeliveredSource(t *testing.T) {
	ghosts := []hbproto.Heartbeat{
		{Src: "ghost-1", Seq: 1, App: "std", Origin: time.Now(), Expiry: time.Minute},
		{Src: "ue-1", Seq: 9, App: "std", Origin: time.Now(), Expiry: time.Minute},
		{Src: "ghost-2", Seq: 1, App: "std", Origin: time.Now(), Expiry: time.Minute},
	}
	for _, tc := range []struct {
		name  string
		frame func() ([]byte, error)
	}{
		{"ack", func() ([]byte, error) { // clients may not send one
			ack := &hbproto.Ack{}
			for _, hb := range ghosts {
				ack.Refs = append(ack.Refs, hbproto.Ref{Src: hb.Src, Seq: hb.Seq})
			}
			return hbproto.AppendFrame(nil, ack)
		}},
		{"batch with trailing bytes", func() ([]byte, error) {
			frame, err := hbproto.AppendFrame(nil, &hbproto.Batch{Relay: "trunk-1", HBs: ghosts})
			if err != nil {
				return nil, err
			}
			frame = append(frame[:len(frame)-4], 0) // one byte past the batch, then a fresh CRC
			body := frame[8:]
			binary.BigEndian.PutUint32(frame[4:8], uint32(len(body)))
			return binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(body)), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startServer(t, loopback{})
			good := dialRaw(t, s.Addr())
			good.heartbeat("ue-1", 1)
			good.heartbeat("ue-1", 2) // the guess now runs from ue-1's row
			frame, err := tc.frame()
			if err != nil {
				t.Fatal(err)
			}
			bad := dialRaw(t, s.Addr())
			if _, err := bad.conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			eventually(t, 3*time.Second, func() bool { return s.Stats().ProtocolErrors == 1 }, "the frame refused")
			if st := s.Stats(); st.IDGuessHits+st.IDGuessMisses != 2+len(ghosts) {
				t.Fatalf("the table resolved %d sources, want %d: the rejected frame's were not resolved", st.IDGuessHits+st.IDGuessMisses, 2+len(ghosts))
			}
			rows := s.ExportPresence()
			if len(rows) != 1 || rows[0].ID != "ue-1" || rows[0].MaxSeq != 2 {
				t.Fatalf("presence rows %+v, want ue-1 alone with MaxSeq 2", rows)
			}
			n := 0
			for i := range s.shards {
				sh := &s.shards[i]
				sh.mu.Lock()
				n += int(sh.n)
				sh.mu.Unlock()
			}
			if total, _ := s.presenceOccupancy(); n != 1 || total != 1 {
				t.Fatalf("%d rows, %d indexed, want ue-1's alone", n, total)
			}
		})
	}
}

// TestServerIdentityStats sends the same batch three times over one
// connection and reads the identity counters from Stats: the first period
// hashes every ID, later periods all but one. /metrics reads them from
// Stats (TestMetricsReadStats), and the per-connection handle cache's
// counters are gone with the cache.
func TestServerIdentityStats(t *testing.T) {
	const population, periods = 50, 3
	s := NewServer()
	reg := telemetry.NewRegistry()
	s.SetTelemetry(reg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	c := dialRaw(t, s.Addr())
	batch := &hbproto.Batch{Relay: "trunk-1"}
	for i := 0; i < population; i++ {
		batch.HBs = append(batch.HBs, hbproto.Heartbeat{
			Src: fmt.Sprintf("ue-%03d", i), App: "std", Origin: time.Now(), Expiry: time.Minute,
		})
	}
	for p := 1; p <= periods; p++ {
		for i := range batch.HBs {
			batch.HBs[i].Seq = uint64(p)
		}
		c.send(batch)
		c.awaitAcks(population)
	}
	st := s.Stats()
	want := ServerStats{
		// No source has a row when the first period is decoded, so its
		// touches lay the chain; the second period's first source has no
		// predecessor the reader knew, and hashes.
		IDGuessMisses: population + 1, IDGuessHits: population*(periods-1) - 1,
	}
	if st.IDGuessHits != want.IDGuessHits || st.IDGuessMisses != want.IDGuessMisses {
		t.Fatalf("identity stats = guess %d/%d, want guess %d/%d",
			st.IDGuessHits, st.IDGuessMisses, want.IDGuessHits, want.IDGuessMisses)
	}
	dump := reg.Dump()
	for _, name := range []string{"relaynet_server_id_cache_hits_total", "relaynet_server_id_cache_misses_total"} {
		if m := dump.Find(name); m != nil {
			t.Errorf("/metrics still exports %s: %+v", name, m)
		}
	}
}

// TestHandleZeroFallsBackToTheID drives touch with heartbeats no table
// stamped (handle 0 is also what a source decodes to before its client has
// a row): every one reaches its row by ID, presence comes out the same,
// and touch links each row after the one before it, so a reader decoding
// the same order next resolves it by the guess alone.
func TestHandleZeroFallsBackToTheID(t *testing.T) {
	s := NewServer()
	cs := s.newConnState(&s.stripes[0])
	now := time.Now()
	for seq := uint64(1); seq <= 3; seq++ {
		for _, id := range []string{"ue-a", "ue-b"} {
			s.touch(cs, &hbproto.Heartbeat{Src: id, Seq: seq, App: "std", Origin: now, Expiry: time.Minute}, now, true)
		}
	}
	if cs.guessHits != 0 || cs.guessMisses != 0 {
		t.Fatalf("handle-0 heartbeats went through the table: guess hits %d misses %d", cs.guessHits, cs.guessMisses)
	}
	if n := s.OnlineCount(now); n != 2 {
		t.Fatalf("OnlineCount = %d, want 2", n)
	}
	if got := exported(t, s, "ue-b").MaxSeq; got != 3 {
		t.Fatalf("MaxSeq = %d, want 3", got)
	}
	_, a := cs.Source(0, []byte("ue-a"))
	_, b := cs.Source(a, []byte("ue-b"))
	again, _ := cs.Source(b, []byte("ue-a"))
	if a == 0 || b == 0 || again != "ue-a" || cs.guessHits != 2 || cs.guessMisses != 1 {
		t.Fatalf("resolving a, b, a: handles %d, %d, guess hits/misses %d/%d, want 2/1", a, b, cs.guessHits, cs.guessMisses)
	}
}

// TestRoutingVerdictFollowsTheView pins the per-client routing cache: the
// verdict is computed once per cluster view, and a new view — here one that
// hands the client to a shard that has just joined — replaces it.
func TestRoutingVerdictFollowsTheView(t *testing.T) {
	var mu sync.Mutex
	cfg := cluster.Config{Epoch: 1, Nodes: []cluster.Node{{ID: "shard-a", Addr: "127.0.0.1:1"}}}
	web := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		data, err := cluster.MarshalConfig(cfg)
		mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(data)
	}))
	t.Cleanup(web.Close)
	cc, err := cluster.NewClient(cluster.ClientConfig{RouterURL: web.URL, PollInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cc.Close)

	two := cluster.Config{Epoch: 2, Nodes: append(cfg.Nodes[:1:1], cluster.Node{ID: "shard-b", Addr: "127.0.0.1:2"})}
	view2, err := cluster.NewView(two, 0)
	if err != nil {
		t.Fatal(err)
	}
	var moved string
	for i := 0; moved == ""; i++ {
		if id := fmt.Sprintf("probe-%d", i); view2.Ring().Owner(id) == "shard-b" {
			moved = id
		}
	}

	s := NewServer()
	s.SetCluster("shard-a", cc)
	cs := &connState{cc: &s.stripes[0]}
	beat := func(seq uint64) {
		now := time.Now()
		s.touch(cs, &hbproto.Heartbeat{Src: moved, Seq: seq, App: "std", Origin: now, Expiry: time.Minute}, now, false)
	}
	beat(1)
	beat(2)
	if got := s.Stats().Misrouted; got != 0 {
		t.Fatalf("misrouted = %d under the one-shard view, want 0", got)
	}
	mu.Lock()
	cfg = two
	mu.Unlock()
	if err := cc.Refresh(); err != nil {
		t.Fatal(err)
	}
	beat(3)
	beat(4)
	if got := s.Stats().Misrouted; got != 2 {
		t.Fatalf("misrouted = %d after the client's keys moved to shard-b, want 2 (a stale verdict reads 0)", got)
	}
}

// TestFeedbackRoutesAcksDecodedFromTheWire is the regression test for the
// relay's source table: it is keyed by the relay's own (source, seq) pair,
// so an ack that went through the upstream slot — a v2 ack naming the
// batch frame, whose refs the slot's ack ring hands on as the relay wrote
// them — still finds the UE connection to feed back to. The test plays the
// relay's runner and the shard.
func TestFeedbackRoutesAcksDecodedFromTheWire(t *testing.T) {
	timed(t, func(t *testing.T, _ network) {
		shard, dialed := net.Pipe()
		t.Cleanup(func() { _ = shard.Close() })
		period, expiry := 270*time.Second, 300*time.Second
		r := steppedRelay(t, RelayAgentConfig{
			ID: "relay-1", App: "std", Capacity: 8, Period: period, Expiry: expiry,
			Dial: func(string, string) (net.Conn, error) { return dialed, nil },
		}, "shard-0")
		go func() { // the shard: acknowledge the batch, in the uplink's v2
			fr := hbproto.NewFrameReader(shard)
			for {
				msg, err := fr.Next()
				if err != nil {
					return
				}
				if _, ok := msg.(*hbproto.Batch); ok && fr.Version() == hbproto.Version2 {
					_ = hbprototest.WriteFrameV(shard, hbproto.Version2, &hbproto.Ack{Frames: []uint32{fr.Sum()}})
				}
			}
		}()

		near1, far1 := net.Pipe()
		near2, far2 := net.Pipe()
		t.Cleanup(func() { _ = near1.Close(); _ = far1.Close(); _ = near2.Close(); _ = far2.Close() })
		ue1, ue2 := &ueConn{conn: near1}, &ueConn{conn: near2}
		beat := func(at time.Duration, uc *ueConn, src string, seq uint64) *input {
			return beatAt(at, uc, hbproto.Heartbeat{Src: src, Seq: seq, App: "std", Origin: time.Now(), Expiry: expiry})
		}
		ms := time.Millisecond
		holdRunner(t, r)
		r.step(&input{at: 0})
		r.step(&input{at: 1 * ms, kind: inRegister, ue: ue1})
		r.step(&input{at: 1 * ms, kind: inRegister, ue: ue2})
		r.step(beat(2*ms, ue1, "ue-1", 7))
		r.step(beat(2*ms, ue2, "ue-2", 9))
		r.step(&input{at: 3 * ms, kind: inClosed, ue: ue2}) // its connection is gone before the ack
		r.step(&input{at: period})                          // the boundary flushes both upstream

		ev := queued(t, r, "the shard's ack never reached the relay's inbox")
		// The relay's own heartbeat rides at the batch's end.
		if want := []hbproto.Ref{{Src: "ue-1", Seq: 7}, {Src: "ue-2", Seq: 9}, {Src: "relay-1", Seq: 1}}; !slices.Equal(ev.acked, want) {
			t.Fatalf("acked refs %+v, want the batch's %+v as written", ev.acked, want)
		}
		wire := make(chan hbproto.Message, 1)
		go func() {
			msg, err := hbproto.NewFrameReader(far1).Next()
			if err != nil {
				t.Errorf("UE side read: %v", err)
			}
			wire <- msg
		}()
		ev.at = period + ms
		r.step(&ev)
		r.flushFeedback()
		fb, ok := (<-wire).(*hbproto.Feedback)
		if !ok || len(fb.Refs) != 1 || fb.Refs[0].Src != "ue-1" || fb.Refs[0].Seq != 7 {
			t.Fatalf("UE received %+v, want feedback for ue-1/7", fb)
		}
		if n := r.relay.Awaiting(); n != 0 {
			t.Fatalf("%d acked sources left in the table", n)
		}
		if st := r.relay.Stats(); st.AcksSent != 1 || st.AckFailures != 1 || st.ForwardedSent != 2 {
			t.Fatalf("relay stats = %+v, want 2 forwarded, 1 fed back, 1 for a vanished UE", st)
		}
	})
}

// TestSharedRecordsUnderHandoff runs several connections over one set of
// clients, each decoding the same order through the server's table and so
// sharing the clients' rows and successor links, while a handoff keeps
// forgetting and re-importing them. Under -race this pins that a row's
// fields, links included, are only ever touched under the stripe lock;
// afterwards every heartbeat is accounted for and every client ends up in
// the table.
func TestSharedRecordsUnderHandoff(t *testing.T) {
	const conns, clients, rounds = 4, 40, 200
	s := NewServer()
	ids := make([]string, clients)
	for i := range ids {
		ids[i] = fmt.Sprintf("shared-%02d", i)
	}
	stop := make(chan struct{})
	var handoff sync.WaitGroup
	handoff.Add(1)
	go func() {
		defer handoff.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rows := s.ExportPresence()
			s.ForgetPresence(ids[:clients/2])
			s.ImportPresence(rows)
		}
	}()
	deliver := func(c *tableConn, seq uint64) error {
		batch := &hbproto.Batch{Relay: "trunk"}
		for _, id := range ids {
			batch.HBs = append(batch.HBs, hbproto.Heartbeat{Src: id, Seq: seq, App: "std", Origin: time.Now(), Expiry: time.Minute})
		}
		return c.deliver(batch)
	}
	tcs := make([]*tableConn, conns)
	var wg sync.WaitGroup
	for c := range tcs {
		tcs[c] = newTableConn(s, c)
		wg.Add(1)
		go func(c *tableConn) {
			defer wg.Done()
			for r := uint64(1); r <= rounds; r++ {
				if err := deliver(c, r); err != nil {
					t.Error(err)
					return
				}
			}
		}(tcs[c])
	}
	wg.Wait()
	close(stop)
	handoff.Wait()
	for c, tc := range tcs {
		cc := &s.stripes[c]
		// A connection's first source has no predecessor to guess from;
		// after it, rows and links another connection laid serve it too.
		if hits, misses := cc.guessHits.Load(), cc.guessMisses.Load(); hits+misses != clients*rounds || misses == 0 {
			t.Errorf("connection resolved %d+%d sources, want %d with at least one by ID", hits, misses, clients*rounds)
		}
		// One more round after the last handoff: whatever it forgot comes
		// back through the table.
		if err := deliver(tc, rounds+1); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.OnlineCount(time.Now()); n != clients {
		t.Fatalf("OnlineCount = %d, want %d", n, clients)
	}
	for _, id := range ids {
		if got := exported(t, s, id).MaxSeq; got != rounds+1 {
			t.Fatalf("%s MaxSeq = %d, want %d", id, got, rounds+1)
		}
	}
}
