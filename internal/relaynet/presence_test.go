package relaynet

import (
	"fmt"
	"math/rand"
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
	c.lastSeen = now
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

// TestPresenceRowsMatchMap drives the server's presence rows and
// mapPresence through the same random scripts of Register, touch (by a
// connection's cached handle and by ID), Import, Forget and Export, over a
// small population so forgotten clients come back and freed rows are
// reused while connections still cache them. After every step the export,
// Online and OnlineCount must agree with the map.
func TestPresenceRowsMatchMap(t *testing.T) {
	const conns, population, steps = 3, 24, 1500
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, ref := statsServer(), mapPresence{}
		states := make([]*connState, conns)
		handles := make([]map[string]hbproto.Handle, conns) // what each connection's decoder issued
		for c := range states {
			states[c], handles[c] = &connState{cc: &s.stripes[c]}, map[string]hbproto.Handle{}
		}
		base := time.Unix(1_700_000_000, 0)
		id := func() string { return fmt.Sprintf("ue-%02d", rng.Intn(population)) }
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
			case op <= 5: // a heartbeat by cached handle
				c, src := rng.Intn(conns), id()
				h, ok := handles[c][src]
				if !ok {
					h = hbproto.Handle(len(handles[c]) + 1)
					handles[c][src] = h
				}
				hb := &hbproto.Heartbeat{Src: src, Seq: uint64(rng.Intn(100)), App: app(), Origin: now, Expiry: expiry, Handle: h}
				s.touch(states[c], hb, now, true)
				ref.touch(hb, now)
			case op == 6: // a heartbeat no decoder numbered
				hb := &hbproto.Heartbeat{Src: id(), Seq: uint64(rng.Intn(100)), App: app(), Origin: now, Expiry: expiry}
				s.touch(states[rng.Intn(conns)], hb, now, false)
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

// TestStaleHandleNeverReachesAnotherClient pins the row reuse a handoff
// makes possible: a connection caches client a's row, a handoff frees it,
// and client b — of the same stripe — takes it over. A heartbeat for a by
// the stale handle must start a fresh row for a and leave b's alone.
func TestStaleHandleNeverReachesAnotherClient(t *testing.T) {
	s := statsServer()
	now := time.Now()
	cs := &connState{cc: &s.stripes[0]}
	beat := func(src string, seq uint64, h hbproto.Handle) {
		s.touch(cs, &hbproto.Heartbeat{Src: src, Seq: seq, App: "std", Origin: now, Expiry: time.Minute, Handle: h}, now, true)
	}
	_, stripe, _ := s.hash("ue-a")
	b := ""
	for i := 0; b == ""; i++ {
		if _, sh, _ := s.hash(fmt.Sprint("ue-b", i)); sh == stripe {
			b = fmt.Sprint("ue-b", i)
		}
	}
	beat("ue-a", 5, 1)
	s.ForgetPresence([]string{"ue-a"})
	s.ImportPresence([]cluster.PresenceEntry{{ID: b, App: "std", MaxSeq: 40}})
	if len(stripe.rows) != 1 {
		t.Fatalf("the stripe has %d rows: b did not take a's freed row", len(stripe.rows))
	}
	beat("ue-a", 6, 1)
	if got := exported(t, s, b).MaxSeq; got != 40 {
		t.Fatalf("b's MaxSeq = %d after a heartbeat for a by a's stale handle, want 40", got)
	}
	if got := exported(t, s, "ue-a").MaxSeq; got != 6 {
		t.Fatalf("a's MaxSeq = %d, want 6 on a fresh row", got)
	}
	if cs.hits != 0 || cs.misses != 2 {
		t.Fatalf("hits %d misses %d, want both heartbeats resolved by ID", cs.hits, cs.misses)
	}
}

// TestHandoffReusesRows runs a population through repeated handoffs —
// export, forget everything, import it back — and pins that every cycle
// reuses the rows the last one freed instead of growing the columns.
func TestHandoffReusesRows(t *testing.T) {
	const population = 500
	s := statsServer()
	now := time.Now()
	cs := &connState{cc: &s.stripes[0]}
	ids := make([]string, population)
	for i := range ids {
		ids[i] = fmt.Sprintf("ue-%03d", i)
		s.touch(cs, &hbproto.Heartbeat{Src: ids[i], Seq: 1, App: "std", Origin: now, Expiry: time.Minute, Handle: hbproto.Handle(i + 1)}, now, true)
	}
	rows := func() (n int) {
		for i := range s.shards {
			n += len(s.shards[i].rows)
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

// TestTouchCachedZeroAllocs pins the server's per-heartbeat path once a
// connection has cached its sources' rows: a period of touches allocates
// nothing.
func TestTouchCachedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	const population = 1000
	s := statsServer()
	now := time.Now()
	cs := &connState{cc: &s.stripes[0]}
	hbs := make([]hbproto.Heartbeat, population)
	for i := range hbs {
		hbs[i] = hbproto.Heartbeat{Src: fmt.Sprintf("ue-%04d", i), App: "std", Origin: now, Expiry: time.Minute, Handle: hbproto.Handle(i + 1)}
	}
	period := func() {
		for i := range hbs {
			hbs[i].Seq++
			s.touch(cs, &hbs[i], now, true)
		}
	}
	period() // first sight: rows, index and handle cache grow
	if allocs := testing.AllocsPerRun(20, period); allocs != 0 {
		t.Fatalf("%.1f allocs per period of %d cached touches, want 0", allocs, population)
	}
	if cs.hits != 21*population {
		t.Fatalf("%d of %d touches by handle", cs.hits, 21*population)
	}
}
