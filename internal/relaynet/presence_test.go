package relaynet

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/hbproto"
)

// mapClient is one client of mapPresence.
type mapClient struct {
	app                string
	lastSeen, deadline time.Time
	maxSeq             uint64
}

// mapPresence is the presence table as a map of client records with
// time.Time fields: the reference the server's rows must agree with.
type mapPresence map[string]*mapClient

func (m mapPresence) client(id string) *mapClient {
	c, ok := m[id]
	if !ok {
		c = &mapClient{}
		m[id] = c
	}
	return c
}

func (m mapPresence) register(id, app string, expiry time.Duration, now time.Time) {
	c := m.client(id)
	c.app, c.lastSeen, c.deadline = app, now, now.Add(expiry)
}

func (m mapPresence) touch(hb *hbproto.Heartbeat, now time.Time) {
	c := m.client(hb.Src)
	if c.app == "" {
		c.app = hb.App
	}
	if now.After(c.lastSeen) {
		c.lastSeen = now
	}
	if d := now.Add(hb.Expiry); d.After(c.deadline) {
		c.deadline = d
	}
	c.maxSeq = max(c.maxSeq, hb.Seq)
}

func (m mapPresence) importRows(entries []cluster.PresenceEntry) {
	for _, e := range entries {
		c := m.client(e.ID)
		if c.app == "" {
			c.app = e.App
		}
		if ls := time.Unix(0, e.LastSeenUnixNano); ls.After(c.lastSeen) {
			c.lastSeen = ls
		}
		if dl := time.Unix(0, e.DeadlineUnixNano); dl.After(c.deadline) {
			c.deadline = dl
		}
		c.maxSeq = max(c.maxSeq, e.MaxSeq)
	}
}

func (m mapPresence) equal(t *testing.T, s *Server, now time.Time, what string) {
	t.Helper()
	rows := s.ExportPresence()
	if len(rows) != len(m) {
		t.Fatalf("%s: %d rows exported, the map holds %d", what, len(rows), len(m))
	}
	for _, e := range rows {
		c, ok := m[e.ID]
		if !ok {
			t.Fatalf("%s: exported %q, which the map does not hold", what, e.ID)
		}
		want := cluster.PresenceEntry{ID: e.ID, App: c.app, LastSeenUnixNano: c.lastSeen.UnixNano(), DeadlineUnixNano: c.deadline.UnixNano(), MaxSeq: c.maxSeq}
		if e != want {
			t.Fatalf("%s: row %+v, the map has %+v", what, e, want)
		}
		if on := s.Online(e.ID, now); on != now.Before(c.deadline) {
			t.Fatalf("%s: Online(%q) = %v", what, e.ID, on)
		}
	}
	online := 0
	for _, c := range m {
		if now.Before(c.deadline) {
			online++
		}
	}
	if got := s.OnlineCount(now); got != online {
		t.Fatalf("%s: OnlineCount = %d, the map gives %d", what, got, online)
	}
}

// tableConn is one server connection without a socket: frames go through a
// reader over the connection's source table, as handleConn reads them, and
// on to handleMessage.
type tableConn struct {
	s   *Server
	cs  *connState
	in  bytes.Buffer
	fr  *hbproto.FrameReader
	buf []byte
}

func newTableConn(s *Server, stripe int) *tableConn {
	c := &tableConn{s: s, cs: s.newConnState(&s.stripes[stripe])}
	c.fr = hbproto.NewTableReader(&c.in, c.cs)
	return c
}

// decode returns msg as the connection's reader decodes it, sources
// resolved through the server's table; it is valid until the next decode.
func (c *tableConn) decode(msg hbproto.Message) (hbproto.Message, error) {
	var err error
	if c.buf, err = hbproto.AppendFrame(c.buf[:0], msg); err != nil {
		return nil, err
	}
	c.in.Write(c.buf)
	return c.fr.Next()
}

// deliver decodes msg and applies it, as handleConn does; the acks it earns
// are dropped.
func (c *tableConn) deliver(msg hbproto.Message) error {
	got, err := c.decode(msg)
	if err == nil {
		err = c.s.handleMessage(c.cs, got)
	}
	c.s.flushGuesses(c.cs)
	c.cs.agg.refs = c.cs.agg.refs[:0]
	return err
}

// TestPresenceRowsMatchMap drives the server's presence rows and
// mapPresence through the same random scripts of Register, touch (of a
// heartbeat a connection decoded through the table one of its heartbeats
// earlier, and of one no table stamped), Import, Forget and Export, over a
// small population so forgotten clients come back and freed rows are
// reused — by other clients too — between a heartbeat's decode and its
// touch. After every step the export, Online and OnlineCount must agree
// with the map.
func TestPresenceRowsMatchMap(t *testing.T) {
	const conns, population, steps = 3, 24, 1500
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, ref := NewServer(), mapPresence{}
		states := make([]*tableConn, conns)
		decoded := make([]*hbproto.Heartbeat, conns) // each connection's heartbeat decoded, not yet touched
		for c := range states {
			states[c] = newTableConn(s, c)
		}
		base := time.Unix(1_700_000_000, 0)
		// Client i's ID is 5 to 305 bytes long, by i: lengths either side
		// of a one-byte arena length prefix.
		id := func() string {
			i := rng.Intn(population)
			return fmt.Sprintf("ue-%02d", i) + strings.Repeat("-", []int{0, 10, 122, 123, 300}[i%5])
		}
		app := func() string { return []string{"", "wechat", "qq", "whatsapp"}[rng.Intn(4)] }
		instant := func(now time.Time) int64 {
			return now.Add(time.Duration(rng.Intn(4000)-2000) * time.Millisecond).UnixNano()
		}
		for step := 0; step < steps; step++ {
			now := base.Add(time.Duration(step) * 10 * time.Millisecond)
			expiry := time.Duration(1+rng.Intn(3000)) * time.Millisecond
			switch op := rng.Intn(10); {
			case op == 0:
				m := &hbproto.Register{ID: id(), App: app(), Expiry: expiry}
				s.register(m, now)
				ref.register(m.ID, m.App, m.Expiry, now)
			case op <= 5: // a connection decodes a heartbeat and touches the one it decoded before
				c := rng.Intn(conns)
				msg, err := states[c].decode(&hbproto.Heartbeat{Src: id(), Seq: uint64(rng.Intn(100)), App: app(), Origin: now, Expiry: expiry})
				if err != nil {
					t.Fatal(err)
				}
				hb := *msg.(*hbproto.Heartbeat)
				if prev := decoded[c]; prev != nil {
					s.touch(states[c].cs, prev, now, true)
					ref.touch(prev, now)
				}
				decoded[c] = &hb
			case op == 6: // a heartbeat no table stamped
				hb := &hbproto.Heartbeat{Src: id(), Seq: uint64(rng.Intn(100)), App: app(), Origin: now, Expiry: expiry}
				s.touch(states[rng.Intn(conns)].cs, hb, now, false)
				ref.touch(hb, now)
			case op == 7:
				entries := make([]cluster.PresenceEntry, rng.Intn(5))
				for i := range entries {
					entries[i] = cluster.PresenceEntry{ID: id(), App: app(), LastSeenUnixNano: instant(now), DeadlineUnixNano: instant(now), MaxSeq: uint64(rng.Intn(100))}
				}
				s.ImportPresence(entries)
				ref.importRows(entries)
			default:
				ids := make([]string, rng.Intn(6))
				for i := range ids {
					ids[i] = id()
					delete(ref, ids[i])
				}
				s.ForgetPresence(ids)
			}
			ref.equal(t, s, now, fmt.Sprintf("seed %d step %d", seed, step))
		}
	}
}

// TestHandoffRetake pins the one way a decoded handle goes stale: the
// reader names the row its client held at decode time, and before the
// heartbeat is touched a handoff frees that row and another client — of
// the same stripe — takes it over. The heartbeat must land on its own
// client, on a fresh row, and leave the other one alone. Under churn,
// connections decode and deliver their own clients while handoffs keep
// moving rows from client to client; CI runs it under -race.
func TestHandoffRetake(t *testing.T) {
	t.Run("one heartbeat", func(t *testing.T) {
		s := NewServer()
		c := newTableConn(s, 0)
		beat := func(seq uint64) *hbproto.Heartbeat {
			return &hbproto.Heartbeat{Src: "ue-a", Seq: seq, App: "std", Origin: time.Now(), Expiry: time.Minute}
		}
		if err := c.deliver(beat(5)); err != nil {
			t.Fatal(err)
		}
		msg, err := c.decode(beat(6))
		if err != nil {
			t.Fatal(err)
		}
		hb := msg.(*hbproto.Heartbeat)
		stripe, pos := s.rowAt(hb.Handle)
		if stripe.holds(pos, "ue-a") == nil {
			t.Fatalf("the decoded handle %d does not name ue-a's row", hb.Handle)
		}
		b := ""
		for i := 0; b == ""; i++ {
			if _, sh, _ := s.hash(fmt.Sprint("ue-b", i)); sh == stripe {
				b = fmt.Sprint("ue-b", i)
			}
		}
		s.ForgetPresence([]string{"ue-a"})
		s.ImportPresence([]cluster.PresenceEntry{{ID: b, App: "std", MaxSeq: 4}})
		if stripe.holds(pos, b) == nil {
			t.Fatalf("%s did not take ue-a's freed row", b)
		}
		if err := s.handleMessage(c.cs, hb); err != nil {
			t.Fatal(err)
		}
		if got := exported(t, s, b).MaxSeq; got != 4 {
			t.Fatalf("%s's MaxSeq = %d after ue-a's heartbeat by the retaken row's handle, want 4", b, got)
		}
		if got := exported(t, s, "ue-a").MaxSeq; got != 6 {
			t.Fatalf("ue-a's MaxSeq = %d, want 6 on a fresh row", got)
		}
	})
	t.Run("under churn", func(t *testing.T) {
		// Client i of connection c sends sequence numbers base(c, i)+1,
		// +2, …: a heartbeat landing on another client's row would lift
		// that client's high-water mark out of its own range.
		const conns, clients, rounds = 4, 32, 150
		base := func(c, i int) uint64 { return uint64(c*clients+i) << 20 }
		s := NewServer()
		ids := make([][]string, conns)
		var all []string
		for c := range ids {
			for i := 0; i < clients; i++ {
				ids[c] = append(ids[c], fmt.Sprintf("ue-%d-%02d", c, i))
			}
			all = append(all, ids[c]...)
		}
		stop := make(chan struct{})
		var handoff sync.WaitGroup
		handoff.Add(1)
		go func() { // every pass frees every row and hands them out again in another order
			defer handoff.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows := s.ExportPresence()
				s.ForgetPresence(all)
				s.ImportPresence(rows)
			}
		}()
		tcs := make([]*tableConn, conns)
		deliver := func(c int, seq uint64) error {
			batch := &hbproto.Batch{Relay: "trunk"}
			for i, id := range ids[c] {
				batch.HBs = append(batch.HBs, hbproto.Heartbeat{Src: id, Seq: base(c, i) + seq, App: "std", Origin: time.Now(), Expiry: time.Minute})
			}
			return tcs[c].deliver(batch)
		}
		var wg sync.WaitGroup
		for c := range tcs {
			tcs[c] = newTableConn(s, c)
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := uint64(1); r <= rounds; r++ {
					if err := deliver(c, r); err != nil {
						t.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(stop)
		handoff.Wait()
		for c := range tcs { // one more round after the last handoff: every client is back
			if err := deliver(c, rounds+1); err != nil {
				t.Fatal(err)
			}
		}
		for c := range ids {
			for i, id := range ids[c] {
				if got, want := exported(t, s, id).MaxSeq, base(c, i)+rounds+1; got != want {
					t.Fatalf("%s MaxSeq = %#x, want %#x: another client's heartbeat landed on its row", id, got, want)
				}
			}
		}
		if n := s.OnlineCount(time.Now()); n != len(all) {
			t.Fatalf("OnlineCount = %d, want %d", n, len(all))
		}
	})
}

// TestHandoffReusesRows runs a population through repeated handoffs —
// export, forget everything, import it back — and pins that every cycle
// reuses the rows the last one freed instead of growing the columns.
func TestHandoffReusesRows(t *testing.T) {
	const population = 500
	s := NewServer()
	now := time.Now()
	cs := &connState{cc: &s.stripes[0]}
	ids := make([]string, population)
	for i := range ids {
		ids[i] = fmt.Sprintf("ue-%03d", i)
		s.touch(cs, &hbproto.Heartbeat{Src: ids[i], Seq: 1, App: "std", Origin: now, Expiry: time.Minute}, now, true)
	}
	rows := func() (n int) {
		for i := range s.shards {
			n += int(s.shards[i].n)
		}
		return n
	}
	for cycle := 0; cycle < 20; cycle++ {
		exported := s.ExportPresence()
		s.ForgetPresence(ids)
		s.ImportPresence(exported)
		if n := rows(); n != population {
			t.Fatalf("cycle %d: %d rows for %d clients", cycle, n, population)
		}
	}
	if n := s.OnlineCount(now); n != population {
		t.Fatalf("OnlineCount = %d, want %d", n, population)
	}
}

// TestTouchKeepsLastSeen pins that a client's lastSeen only moves forward:
// handlers stamp their instant before they take the row's lock, so two
// connections can touch one client out of order, and a handoff must ship
// the later instant.
func TestTouchKeepsLastSeen(t *testing.T) {
	s := NewServer()
	cs := &connState{cc: &s.stripes[0]}
	t2 := time.Unix(1_700_000_000, 0)
	t1 := t2.Add(-time.Second)
	for _, at := range []time.Time{t2, t1} {
		s.touch(cs, &hbproto.Heartbeat{Src: "ue-a", Seq: 1, App: "std", Origin: at, Expiry: time.Minute}, at, false)
	}
	if got := exported(t, s, "ue-a").LastSeenUnixNano; got != t2.UnixNano() {
		t.Fatalf("exported lastSeen = %v after touches at t2 then t1, want t2 = %v", time.Unix(0, got), t2)
	}
}

// replay yields one frame over and over.
type replay struct {
	frame []byte
	off   int
}

func (r *replay) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// TestTouchCachedZeroAllocs pins the server's per-heartbeat path for a
// known population: once the first period has given every client its row
// and laid the successor chain, a period decoded through the connection's
// table — every source resolved by the guess — and touched allocates
// nothing.
func TestTouchCachedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	const population = 1000
	s := NewServer()
	now := time.Now()
	batch := &hbproto.Batch{Relay: "trunk-1"}
	for i := 0; i < population; i++ {
		batch.HBs = append(batch.HBs, hbproto.Heartbeat{Src: fmt.Sprintf("ue-%04d", i), Seq: 1, App: "std", Origin: now, Expiry: time.Minute})
	}
	frame, err := hbproto.AppendFrame(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	cs := s.newConnState(&s.stripes[0])
	fr := hbproto.NewTableReader(&replay{frame: frame}, cs)
	period := func() {
		msg, err := fr.Next()
		if err == nil {
			err = s.handleMessage(cs, msg)
		}
		if err != nil {
			t.Fatal(err)
		}
		cs.agg.refs = cs.agg.refs[:0]
	}
	period() // first sight: rows and index grow, touch lays the chain
	period() // the first source has no known predecessor yet
	if allocs := testing.AllocsPerRun(20, period); allocs != 0 {
		t.Fatalf("%.1f allocs per period of %d known sources, want 0", allocs, population)
	}
	if want := uint64(21 * population); cs.guessMisses != population+1 || cs.guessHits != want+population-1 {
		t.Fatalf("guess hits/misses = %d/%d, want %d/%d", cs.guessHits, cs.guessMisses, want+population-1, population+1)
	}
}

// arenaIDs are IDs of every length the arena stores differently: one byte,
// live_trunked's 13, either side of 16, a two-byte length prefix, one
// longer than a chunk, and bytes that are not UTF-8.
var arenaIDs = []struct{ name, id string }{
	{"1 B", "a"},
	{"13 B", "loadue-000001"},
	{"16 B", strings.Repeat("p", 16)},
	{"17 B", strings.Repeat("q", 17)},
	{"255 B", strings.Repeat("r", 255)},
	{"4096 B", strings.Repeat("s", 4096)},
	{"not UTF-8", "ue-\xff\xfe\x00\x80"},
}

// checkArenas checks every stripe's arena against its rows: the bytes it
// counts as written and as held by a row are the ones its chunks and live
// rows hold, and its dead bytes are within max(live, chunkMax) plus slack.
// With connections delivering, slack is a chunk: Source appends a first
// sight's bytes into the last chunk's room without settling. It reports
// through Errorf, so a handoff goroutine may call it.
func checkArenas(t *testing.T, s *Server, slack int, what string) {
	t.Helper()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		used, live := 0, 0
		for _, c := range sh.ids.chunks {
			used += len(c)
		}
		for p := range sh.n {
			if r := sh.at(p); r.live {
				live += entrySize(len(sh.ids.bytes(r.id)))
			}
		}
		a := sh.ids
		sh.mu.Unlock()
		if used != a.used || live != a.live {
			t.Errorf("%s: stripe %d counts %d B written and %d B live, its chunks hold %d and its rows %d", what, i, a.used, a.live, used, live)
			return
		}
		if dead := used - live; dead > max(live, chunkMax)+slack {
			t.Errorf("%s: stripe %d keeps %d dead arena bytes beside %d live ones, bound %d", what, i, dead, live, max(live, chunkMax)+slack)
			return
		}
	}
}

// TestPresenceArenaRoundTrip takes each of arenaIDs through everything the
// server does with an ID: its first sight, Source by index and by guess,
// ExportPresence, ImportPresence on a second server, ForgetPresence and a
// fresh row. Every string the server hands out reads its own ID for as
// long as it is held, across its row's forget and reuse by another client.
// Repeated handoffs, with connections delivering throughout, keep every
// stripe's dead arena bytes within their bound; CI runs it under -race.
func TestPresenceArenaRoundTrip(t *testing.T) {
	beat := func(src string, seq uint64) *hbproto.Heartbeat {
		return &hbproto.Heartbeat{Src: src, Seq: seq, App: "std", Origin: time.Now(), Expiry: time.Minute}
	}
	for _, tc := range arenaIDs {
		t.Run(tc.name, func(t *testing.T) {
			id := tc.id
			s := NewServer()
			_, sh, _ := s.hash(id)
			first := newTableConn(s, 0)
			msg, err := first.decode(beat(id, 1))
			if err != nil {
				t.Fatal(err)
			}
			if hb := msg.(*hbproto.Heartbeat); hb.Src != id || hb.Handle != 0 {
				t.Fatalf("first sight decoded to %q with handle %d, want the ID with none", hb.Src, hb.Handle)
			}
			if err := s.handleMessage(first.cs, msg); err != nil {
				t.Fatal(err)
			}
			c := newTableConn(s, 1)
			var held string // the last Src c decoded
			for seq := uint64(2); seq <= 5; seq++ {
				msg, err := c.decode(beat(id, seq))
				if err != nil {
					t.Fatal(err)
				}
				hb := msg.(*hbproto.Heartbeat)
				stripe, pos := s.rowAt(hb.Handle)
				if hb.Src != id || stripe != sh || stripe.holds(pos, id) == nil {
					t.Fatalf("seq %d decoded to %q with handle %d, want the ID and its row", seq, hb.Src, hb.Handle)
				}
				if err := s.handleMessage(c.cs, msg); err != nil {
					t.Fatal(err)
				}
				s.flushGuesses(c.cs)
				held = hb.Src
			}
			if st := s.Stats(); st.IDGuessHits == 0 || st.IDGuessMisses == 0 {
				t.Fatalf("guess hits/misses = %d/%d: Source resolved the ID only one way", st.IDGuessHits, st.IDGuessMisses)
			}
			sh.mu.Lock()
			_, aliased := sh.ids.holding(held)
			sh.mu.Unlock()
			if !aliased {
				t.Fatal("a decoded Src is not the arena's string")
			}

			rows := s.ExportPresence()
			if len(rows) != 1 || rows[0].ID != id || rows[0].MaxSeq != 5 {
				t.Fatalf("exported %+v, want the ID at MaxSeq 5", rows)
			}
			s2 := NewServer()
			s2.ImportPresence(rows)
			if e := exported(t, s2, id); e.MaxSeq != 5 || e.App != "std" {
				t.Fatalf("imported %+v, want MaxSeq 5 of std", e)
			}
			s.ForgetPresence([]string{id})
			if len(s.ExportPresence()) != 0 {
				t.Fatal("a forgotten client is still exported")
			}
			other := ""
			for i := 0; other == ""; i++ {
				if _, osh, _ := s.hash(fmt.Sprint("other-", i)); osh == sh {
					other = fmt.Sprint("other-", i)
				}
			}
			s.ImportPresence([]cluster.PresenceEntry{{ID: other, App: "std", MaxSeq: 1}})
			if sh.n != 1 || exported(t, s, other).MaxSeq != 1 {
				t.Fatalf("%s did not take the freed row", other)
			}
			if held != id || rows[0].ID != id {
				t.Fatal("a string the server handed out changed when its row was freed and reused")
			}
			if err := c.deliver(beat(id, 9)); err != nil {
				t.Fatal(err)
			}
			if got := exported(t, s, id).MaxSeq; got != 9 {
				t.Fatalf("MaxSeq = %d after the client came back, want 9", got)
			}
			checkArenas(t, s, 0, "after the round trip")
			checkArenas(t, s2, 0, "on the second server")
		})
	}
	t.Run("handoffs", func(t *testing.T) {
		// conns connections deliver their clients to a while every pass
		// hands all clients to b and back, so a's rows are freed and its
		// IDs re-appended; each connection checks the Src strings it
		// decoded in earlier rounds.
		const conns, perLength, passes, rounds = 3, 8, 40, 60
		a, b := NewServer(), NewServer()
		ids := make([][]string, conns)
		var all []string
		for c := range ids {
			for _, tc := range arenaIDs {
				for i := 0; i < perLength; i++ {
					ids[c] = append(ids[c], fmt.Sprintf("%d-%d-%s", c, i, tc.id))
				}
			}
			all = append(all, ids[c]...)
		}
		// hand moves every client from one server to the other as a
		// cluster handoff does: the receiver imports a snapshot and the
		// sender forgets the clients in it. A client the connections
		// deliver to from after the snapshot stays where it is.
		hand := func(from, to *Server) {
			rows := from.ExportPresence()
			to.ImportPresence(rows)
			ids := make([]string, len(rows))
			for i, e := range rows {
				ids[i] = e.ID
			}
			from.ForgetPresence(ids)
		}
		var handoff sync.WaitGroup
		handoff.Add(1)
		go func() {
			defer handoff.Done()
			for pass := 0; pass < passes; pass++ {
				hand(a, b)
				hand(b, a)
				checkArenas(t, a, chunkMax, fmt.Sprintf("pass %d", pass))
			}
		}()
		var wg sync.WaitGroup
		for c := range ids {
			tc := newTableConn(a, c)
			wg.Add(1)
			go func() {
				defer wg.Done()
				var held []string
				for r := uint64(1); r <= rounds; r++ {
					batch := &hbproto.Batch{Relay: "trunk"}
					for _, id := range ids[c] {
						batch.HBs = append(batch.HBs, *beat(id, r))
					}
					msg, err := tc.decode(batch)
					if err == nil {
						for _, hb := range msg.(*hbproto.Batch).HBs {
							held = append(held, hb.Src)
						}
						err = a.handleMessage(tc.cs, msg)
					}
					tc.cs.agg.refs = tc.cs.agg.refs[:0]
					if err != nil {
						t.Error(err)
						return
					}
					for i, src := range held {
						if want := ids[c][i%len(ids[c])]; src != want {
							t.Errorf("round %d: a held Src reads %.20q, want %.20q", r, src, want)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		handoff.Wait()
		hand(a, b)
		checkArenas(t, a, 0, "after a last handoff")
		checkArenas(t, b, 0, "on the server that took it")
		if got := len(b.ExportPresence()); got != len(all) {
			t.Fatalf("%d clients handed over, want %d", got, len(all))
		}
		for _, id := range all {
			if !b.Online(id, time.Now()) {
				t.Fatalf("%.20q is not online after the handoffs", id)
			}
		}
	})
}
