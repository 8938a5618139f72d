package relaynet

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"d2dhb/internal/hbproto"
	"d2dhb/internal/hbproto/hbprototest"
	"d2dhb/internal/rec"
	"d2dhb/internal/trace"
)

func TestNextDue(t *testing.T) {
	const period = 100 * time.Millisecond
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	cases := []struct {
		name         string
		due, now, to int // ms after t0
	}{
		{"fired a grain early", 100, 92, 200},
		{"fired on time", 100, 101, 200},
		{"tick took half a period", 100, 150, 200},
		{"tick ended on the next point", 100, 200, 300},
		{"tick held up for three periods", 100, 450, 500},
	}
	for _, c := range cases {
		if got := nextDue(at(c.due), period, at(c.now)); !got.Equal(at(c.to)) {
			t.Errorf("%s: next due %v after t0, want %d ms", c.name, got.Sub(t0), c.to)
		}
	}
}

// TestOnGrid: an instant moves back onto the grid of whole grains since
// the Unix epoch, by less than a grain, and one on it stays.
func TestOnGrid(t *testing.T) {
	for _, at := range []time.Time{time.Unix(0, 0), time.Now()} {
		for _, d := range []time.Duration{0, 1, sendGrain - 1, sendGrain, 7*sendGrain + sendGrain/3, -sendGrain / 2} {
			in := at.Add(d)
			got := onGrid(in)
			if off := time.Duration(got.UnixNano()); off%sendGrain != 0 {
				t.Errorf("onGrid(%v) = Unix epoch + %v: off the grid", in, off)
			}
			if early := in.Sub(got); early < 0 || early >= sendGrain {
				t.Errorf("onGrid(%v) moved the instant by %v, want [0, %v)", in, early, sendGrain)
			}
			if on := onGrid(got); !on.Equal(got) {
				t.Errorf("onGrid moved the grid instant %v to %v", got, on)
			}
		}
	}
}

// TestSendsShareTheGrid runs a direct fleet whose UEs are due at instants
// spread evenly over time and checks that they nevertheless wake together,
// on the grid, while each keeps its own period.
func TestSendsShareTheGrid(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		const ues = 50
		var (
			period   = 270 * time.Second
			expiry   = 300 * time.Second
			duration = 45 * time.Minute
			// The run ends half a grain before the first UE's send at the
			// duration's end, not on it.
			stop = duration - sendGrain/2
		)
		s := startServer(t, nw)
		recorder := rec.NewRecorder()
		apps := []UEApp{{Name: "fast", Period: period, Expiry: expiry, Pad: 54}}
		fleet := make([]*UEClient, ues)
		for i := range fleet {
			id := fmt.Sprintf("grid-ue-%02d", i)
			recorder.AddClient(rec.Client{ID: id, App: "fast", Period: period, Expiry: expiry, Pad: 54, Relay: -1})
			u, err := NewUEClient(UEClientConfig{ID: id, Apps: apps, ServerAddr: s.Addr(), Dial: nw.Dial, Tracer: recorder})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(u.Shutdown)
			fleet[i] = u
		}
		// Arrival offsets spread one period evenly over the fleet, as a steady
		// load-generator schedule does; one driver runs them all. The
		// offsets fall on the grid, so each is half a grain past it.
		drv := NewDriver()
		start := time.Now()
		recorder.Start(start, 0)
		for i, u := range fleet {
			drv.Add(u, u.Begin(start.Add(sendGrain/2+period*time.Duration(i)/ues)))
		}
		time.Sleep(stop)
		drv.Stop()
		await(t, duration, func() bool {
			n := 0
			for _, u := range fleet {
				n += u.InFlight()
			}
			return n == 0
		}, "every heartbeat acknowledged")
		for _, u := range fleet {
			if st := u.Stats(); st.Acked != st.Generated || st.Timeouts != 0 {
				t.Fatalf("acked %d of %d, %d timeouts", st.Acked, st.Generated, st.Timeouts)
			}
		}
		tl, err := recorder.Timeline()
		if err != nil {
			t.Fatal(err)
		}
		// Event times are offsets from the run's start; the grid's phase
		// there is the start's offset from the Unix epoch.
		phase := time.Duration(tl.BaseUnixNano) % sendGrain
		// A send is stamped once its UE has woken and swept: on a grid
		// instant.
		sends, off := 0, 0
		perUE := make([]int, ues)
		for _, ev := range tl.Events {
			if ev.Kind != rec.EvSend {
				continue
			}
			sends++
			perUE[ev.Client]++
			if (ev.At+phase)%sendGrain != 0 {
				off++
			}
		}
		if sends == 0 || off != 0 {
			t.Errorf("%d of %d sends off the grid", off, sends)
		}
		// Each UE sends exactly once a period.
		for i, got := range perUE {
			if want := int(duration / period); got != want {
				t.Errorf("UE %d sent %d heartbeats in %v at a %v period, want %d", i, got, duration, period, want)
			}
		}
	})
}

// TestUEWritesOffWhatNoServerTakes: with no relay and nothing listening at
// the server's address, no heartbeat reaches the wire, and every one the
// UE generates still ends — in Timeouts, not silently. In the bubble the
// UE sends at 0, 270, 540 and 810 s; by 15 minutes the first three windows
// (305 s each) have lapsed, and Shutdown writes off the fourth.
func TestUEWritesOffWhatNoServerTakes(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		u := startUE(t, nw, ueConfig("ue-void", "", "127.0.0.1:1", 270*time.Second, 300*time.Second))
		await(t, 15*time.Minute, func() bool { return u.Stats().Timeouts == 3 },
			"heartbeats written off once their windows lapse")
		u.Shutdown()
		st := u.Stats()
		if st.Generated != 4 || st.Timeouts != st.Generated || st.Acked != 0 {
			t.Fatalf("stats = %+v, want every generated heartbeat timed out", st)
		}
		if st.Direct != 0 || st.DialErrors != st.Generated {
			t.Fatalf("stats = %+v, want no send on the wire and one dial error per heartbeat", st)
		}
	})
}

// TestFallbackKeepsOrigin: the direct resend of a heartbeat the relay
// never confirmed carries the first send's origin, so its expiry T_k still
// counts from generation, not from the resend.
func TestFallbackKeepsOrigin(t *testing.T) {
	relayAddr, viaRelay := listenHeartbeats(t, loopback{}, false) // swallows the heartbeat, never feeds back
	serverAddr, atServer := listenHeartbeats(t, loopback{}, true)

	// One heartbeat an hour: the first is the only one.
	cfg := ueConfig("ue-origin", relayAddr, serverAddr, time.Hour, 300*time.Millisecond)
	cfg.FeedbackTimeout = 100 * time.Millisecond
	u, err := NewUEClient(cfg)
	if err != nil {
		t.Fatalf("NewUEClient: %v", err)
	}
	if err := u.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(u.Shutdown)

	var first, resent *hbproto.Heartbeat
	select {
	case first = <-viaRelay:
	case <-time.After(2 * time.Second):
		t.Fatal("the relay never received the heartbeat")
	}
	select {
	case resent = <-atServer:
	case <-time.After(2 * time.Second):
		t.Fatal("no fallback resend reached the server")
	}
	if resent.Seq != first.Seq || !resent.Origin.Equal(first.Origin) {
		t.Fatalf("fallback resend seq %d origin %v, want the first send's seq %d origin %v",
			resent.Seq, resent.Origin, first.Seq, first.Origin)
	}
	eventually(t, 2*time.Second, func() bool { return u.Stats().Acked == 1 }, "the server's ack settles the resend")
	if st := u.Stats(); st.FallbackResends != 1 || st.FeedbackAcks != 0 || st.Timeouts != 0 {
		t.Fatalf("stats = %+v, want one fallback acknowledged by the server", st)
	}
}

// listenHeartbeats accepts connections and hands over every heartbeat
// decoded from them, acknowledging each when ack is set. The channel holds
// more than the few heartbeats a test reads; the rest are dropped, so no
// reader blocks on a test that reads none. Without ack it is a relay that
// swallows heartbeats, or a server that never acknowledges.
func listenHeartbeats(t *testing.T, nw network, ack bool) (string, <-chan *hbproto.Heartbeat) {
	t.Helper()
	ln, err := nw.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
	})
	hbs := make(chan *hbproto.Heartbeat, 16)
	serve := func(conn net.Conn) {
		for {
			msg, err := hbprototest.ReadFrame(conn)
			if err != nil {
				return
			}
			hb, ok := msg.(*hbproto.Heartbeat)
			if !ok {
				continue
			}
			select {
			case hbs <- hb:
			default:
			}
			if ack {
				_ = hbprototest.WriteFrame(conn, &hbproto.Ack{Refs: []hbproto.Ref{{Src: hb.Src, Seq: hb.Seq}}})
			}
		}
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go serve(conn)
		}
	}()
	return ln.Addr().String(), hbs
}

// TestUEAckWindowIsTheDeviceRule: with no FeedbackTimeout, the live UE's
// ack window is the simulator's (device.FeedbackWindow) — expiry plus five
// seconds, capped at a tenth of the expiry — not the expiry plus a tenth.
func TestUEAckWindowIsTheDeviceRule(t *testing.T) {
	timed(t, func(t *testing.T, _ network) {
		for _, c := range []struct{ expiry, want time.Duration }{
			{270 * time.Second, 275 * time.Second},
			{300 * time.Millisecond, 330 * time.Millisecond},
		} {
			cfg := ueConfig("ue-window", "", "server", time.Hour, c.expiry)
			cfg.Dial = func(string, string) (net.Conn, error) { return nil, errors.New("no network") }
			u, err := NewUEClient(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(u.Shutdown)
			t0 := time.Now()
			u.Send(0, 1, t0)
			if at, ok := u.Lapse(); !ok || at.Sub(t0) != c.want {
				t.Errorf("expiry %v: window lapses %v after the send (in flight %v), want %v", c.expiry, at.Sub(t0), ok, c.want)
			}
		}
	})
}

// TestUEOneTableTwoWindows: two apps with different expiries share one
// pending table, and each heartbeat falls back at its own app's window; a
// sweep resends in (app, seq) order. The apps expire after Table I's
// 270 s and 300 s.
func TestUEOneTableTwoWindows(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		s := startServer(t, nw)
		relayAddr, _ := listenHeartbeats(t, nw, false)
		var tr trace.Recorder
		u, err := NewUEClient(UEClientConfig{
			ID: "ue-two", Apps: []UEApp{
				{Name: "short", Period: time.Hour, Expiry: 270 * time.Second, Pad: 54}, // 275 s window
				{Name: "long", Period: time.Hour, Expiry: 300 * time.Second, Pad: 54},  // 305 s window
			},
			RelayAddr: relayAddr, ServerAddr: s.Addr(), Dial: nw.Dial, Tracer: &tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(u.Shutdown)
		t0 := time.Now()
		u.Send(1, 1, t0)                     // lapses at 305 s
		u.Send(0, 2, t0.Add(20*time.Second)) // lapses at 295 s
		first := t0.Add(295 * time.Second)   // the short app's lapse
		if end, ok := u.Lapse(); !ok || !end.Equal(first) {
			t.Fatalf("first lapse %v after t0, want %v", end.Sub(t0), first.Sub(t0))
		}
		u.Sweep(t0.Add(290 * time.Second)) // the short app's window would have lapsed the long app's heartbeat
		if st := u.Stats(); st.FallbackResends != 0 {
			t.Fatalf("stats = %+v: a heartbeat fell back before its own app's window lapsed", st)
		}
		u.Sweep(t0.Add(310 * time.Second))
		var order []uint64
		for _, ev := range tr.ByKind(trace.KindFallback) {
			order = append(order, ev.Seq)
		}
		if want := []uint64{2, 1}; !slices.Equal(order, want) {
			t.Fatalf("fallback resends of seqs %v, want %v: app 0's before app 1's", order, want)
		}
	})
}

// TestUEDirectSendIsNotResent: a relayed UE whose relay cannot be dialled
// sends direct, and a direct send that is not acknowledged is written off
// when its window lapses, not resent — as in the simulator, only a
// heartbeat sent to a relay has a fallback.
func TestUEDirectSendIsNotResent(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		serverAddr, _ := listenHeartbeats(t, nw, false) // reads, never acknowledges
		cfg := ueConfig("ue-norelay", "relay-down", serverAddr, time.Hour, 300*time.Second)
		cfg.Dial = func(network, addr string) (net.Conn, error) {
			if addr == "relay-down" {
				return nil, errors.New("relay down")
			}
			return nw.Dial(network, addr)
		}
		u, err := NewUEClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(u.Shutdown)
		window := u.window(0) // the device rule's 305 s
		t0 := time.Now()
		u.Send(0, 1, t0)
		u.Send(0, 2, t0.Add(window/10))
		u.Sweep(t0.Add(2 * window))
		u.Sweep(t0.Add(4 * window))
		st := u.Stats()
		if st.Direct != 2 || st.ViaRelay != 0 {
			t.Fatalf("stats = %+v, want both heartbeats sent direct", st)
		}
		if st.FallbackResends != 0 || st.Timeouts != st.Generated || u.InFlight() != 0 {
			t.Fatalf("stats = %+v, want no resend and every heartbeat timed out", st)
		}
	})
}

// TestUEFallbackRedialsTheRelay: a fallback drops the relay link that
// failed the heartbeat, as the simulator's UE closes it, so the next send
// dials the relay afresh.
func TestUEFallbackRedialsTheRelay(t *testing.T) {
	timed(t, func(t *testing.T, nw network) {
		s := startServer(t, nw)
		relayAddr, _ := listenHeartbeats(t, nw, false) // swallows heartbeats
		cfg := ueConfig("ue-redial", relayAddr, s.Addr(), time.Hour, 300*time.Second)
		cfg.Dial = nw.Dial
		u, err := NewUEClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(u.Shutdown)
		window := u.window(0) // the device rule's 305 s
		t0 := time.Now()
		u.Send(0, 1, t0)
		u.Sweep(t0.Add(2 * window))
		u.Send(0, 2, t0.Add(3*window))
		st := u.Stats()
		if st.FallbackResends != 1 || st.ViaRelay != 2 {
			t.Fatalf("stats = %+v, want two relayed sends and one fallback between them", st)
		}
		if st.RelayReconnects != 2 {
			t.Fatalf("%d relay connections, want 2: the send after a fallback redials", st.RelayReconnects)
		}
	})
}
