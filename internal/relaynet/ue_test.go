package relaynet

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"d2dhb/internal/hbproto"
	"d2dhb/internal/hbproto/hbprototest"
	"d2dhb/internal/rec"
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

func TestOnGrid(t *testing.T) {
	for _, d := range []time.Duration{0, 1, sendGrain - 1, sendGrain, 7*sendGrain + sendGrain/3, -sendGrain / 2} {
		in := gridEpoch.Add(d)
		got := onGrid(in)
		if off := got.Sub(gridEpoch); off%sendGrain != 0 {
			t.Errorf("onGrid(epoch+%v) = epoch+%v: off the grid", d, off)
		}
		if early := in.Sub(got); d >= 0 && (early < 0 || early >= sendGrain) {
			t.Errorf("onGrid(epoch+%v) moved the instant by %v, want [0, %v)", d, early, sendGrain)
		}
	}
}

// TestSendsShareTheGrid runs a direct fleet whose UEs are due at instants
// spread evenly over time and checks that they nevertheless wake together,
// on the grid, while each keeps its own period.
func TestSendsShareTheGrid(t *testing.T) {
	const (
		ues      = 50
		period   = 70 * time.Millisecond
		duration = 600 * time.Millisecond
	)
	s := startServer(t)
	recorder := rec.NewRecorder()
	apps := []UEApp{{Name: "fast", Period: period, Expiry: 3 * period, Pad: 54}}
	fleet := make([]*UEClient, ues)
	for i := range fleet {
		id := fmt.Sprintf("grid-ue-%02d", i)
		tidx := recorder.AddClient(rec.Client{ID: id, App: "fast", Period: period, Expiry: 3 * period, Pad: 54, Relay: -1})
		u, err := NewUEClient(UEClientConfig{ID: id, Apps: apps, ServerAddr: s.Addr(), Recorder: recorder, RecorderIndex: tidx})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(u.Shutdown)
		fleet[i] = u
	}
	// Arrival offsets spread one period evenly over the fleet, as a steady
	// load-generator schedule does.
	done := make(chan struct{})
	var loops sync.WaitGroup
	recorder.Start(time.Now(), 0)
	for i, u := range fleet {
		loops.Add(1)
		go func() {
			defer loops.Done()
			u.Run(done, period*time.Duration(i)/ues)
		}()
	}
	time.Sleep(duration)
	close(done)
	loops.Wait()
	eventually(t, 2*time.Second, func() bool {
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
	// Event times are offsets from the run's start; the grid's phase there
	// is the start's offset from the epoch.
	phase := time.Duration(tl.BaseUnixNano-gridEpoch.UnixNano()) % sendGrain
	sends, near := 0, 0
	perUE := make([]int, ues)
	for _, ev := range tl.Events {
		if ev.Kind != rec.EvSend {
			continue
		}
		sends++
		perUE[ev.Client]++
		// A send is stamped once its UE has woken and swept: shortly after
		// a grid instant, never shortly before.
		if (ev.At+phase)%sendGrain < sendGrain/2 {
			near++
		}
	}
	if sends == 0 || near*10 < sends*8 {
		t.Errorf("%d of %d sends within %v after a grid instant; unaligned timers give about half", near, sends, sendGrain/2)
	}
	lo, hi := int(duration/period)-1, int(duration/period)+2
	for i, n := range perUE {
		if n < lo || n > hi {
			t.Errorf("UE %d sent %d heartbeats in %v at a %v period, want %d..%d", i, n, duration, period, lo, hi)
		}
	}
}

// TestUEWritesOffWhatNoServerTakes: with no relay and nothing listening at
// the server's address, no heartbeat reaches the wire, and every one the
// UE generates still ends — in Timeouts, not silently.
func TestUEWritesOffWhatNoServerTakes(t *testing.T) {
	cfg := ueConfig("ue-void", "", "127.0.0.1:1", 40*time.Millisecond, 60*time.Millisecond)
	cfg.FeedbackTimeout = 50 * time.Millisecond
	u, err := NewUEClient(cfg)
	if err != nil {
		t.Fatalf("NewUEClient: %v", err)
	}
	if err := u.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	eventually(t, 2*time.Second, func() bool { return u.Stats().Timeouts >= 3 },
		"heartbeats written off once their windows lapse")
	u.Shutdown()
	st := u.Stats()
	if st.Generated == 0 || st.Timeouts != st.Generated || st.Acked != 0 {
		t.Fatalf("stats = %+v, want every generated heartbeat timed out", st)
	}
	if st.Direct != 0 || st.DialErrors != st.Generated {
		t.Fatalf("stats = %+v, want no send on the wire and one dial error per heartbeat", st)
	}
}

// TestFallbackKeepsOrigin: the direct resend of a heartbeat the relay
// never confirmed carries the first send's origin, so its expiry T_k still
// counts from generation, not from the resend.
func TestFallbackKeepsOrigin(t *testing.T) {
	// listen accepts one connection and hands over every heartbeat decoded
	// from it, acknowledging each when ack is set.
	listen := func(ack bool) (string, <-chan *hbproto.Heartbeat) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ln.Close() })
		hbs := make(chan *hbproto.Heartbeat, 4)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			for {
				msg, err := hbprototest.ReadFrame(conn)
				if err != nil {
					return
				}
				if hb, ok := msg.(*hbproto.Heartbeat); ok {
					hbs <- hb
					if ack {
						_ = hbprototest.WriteFrame(conn, &hbproto.Ack{Refs: []hbproto.Ref{{Src: hb.Src, Seq: hb.Seq}}})
					}
				}
			}
		}()
		return ln.Addr().String(), hbs
	}
	relayAddr, viaRelay := listen(false) // swallows the heartbeat, never feeds back
	serverAddr, atServer := listen(true)

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
