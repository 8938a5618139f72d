package device

import (
	"testing"
	"time"

	"d2dhb/internal/d2d"
	"d2dhb/internal/energy"
	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/rrc"
	"d2dhb/internal/simtime"
	"d2dhb/internal/trace"
)

func TestMultiAppUEForwardsAllApps(t *testing.T) {
	// One device running WeChat + QQ: both apps' heartbeats flow through
	// the same relay link and are individually acknowledged.
	r := newRig(t, 31)
	relay, _ := r.addRelay(t, "relay", geo.Static{}, RelayConfig{Profile: std(), Capacity: 8})
	ue, _ := r.addUE(t, "ue", geo.Static{P: geo.Point{X: 1}}, UEConfig{
		Apps:        apps(hbmsg.WeChat(), hbmsg.QQ()),
		StartOffset: 10 * time.Second,
	})
	// 900 s: WeChat (270 s) beats at 10, 280, 550, 820; QQ (300 s) at 13,
	// 313, 613.
	if err := r.sched.RunUntil(900 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	us := ue.Stats()
	if us.Generated != 7 {
		t.Fatalf("generated = %d, want 7 (4 WeChat + 3 QQ)", us.Generated)
	}
	if us.SentViaD2D != us.Generated {
		t.Fatalf("forwarded %d of %d", us.SentViaD2D, us.Generated)
	}
	if us.DirectCellular != 0 || us.FallbackResends != 0 {
		t.Fatalf("cellular leakage: %+v", us)
	}
	// One D2D connection serves both apps.
	if us.Matches != 1 {
		t.Fatalf("matches = %d, want 1 (shared link)", us.Matches)
	}
	rs := relay.Stats()
	if rs.Collected != us.SentViaD2D {
		t.Fatalf("relay collected %d, want %d", rs.Collected, us.SentViaD2D)
	}
}

func TestMultiAppUEDistinctExpiries(t *testing.T) {
	// A tight-expiry app must pull the relay's flush forward while the
	// relaxed app waits: per-message T_k handling across apps.
	r := newRig(t, 33)
	relay, _ := r.addRelay(t, "relay", geo.Static{}, RelayConfig{Profile: std(), Capacity: 8})
	tight := std()
	tight.Name = "tight"
	tight.ExpiryFactor = 0.1 // 27 s
	ue, _ := r.addUE(t, "ue", geo.Static{P: geo.Point{X: 1}}, UEConfig{
		Apps:        apps(std(), tight),
		StartOffset: 5 * time.Second,
	})
	if err := r.sched.RunUntil(100 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	// The tight heartbeat (origin 8 s, deadline 35 s) forces a flush well
	// before the relay's 270 s period end; both messages ride it.
	rs := relay.Stats()
	if rs.Flushes != 1 {
		t.Fatalf("flushes = %d, want 1", rs.Flushes)
	}
	total, late := r.bs.Deliveries()
	if late != 0 {
		t.Fatalf("late deliveries = %d, want 0", late)
	}
	if total != 3 { // relay own + 2 forwarded
		t.Fatalf("deliveries = %d, want 3", total)
	}
	if got := ue.Stats().AcksReceived; got != 2 {
		t.Fatalf("acks = %d, want 2", got)
	}
}

// TestMultiAppUEFallsBackOnEachAppsWindow runs two apps with different
// expiries through a relay that never acknowledges. The UE's one lapse
// timer must follow the earliest window in flight: the tight app,
// forwarded after the relaxed one, pulls the timer forward and falls back
// at its own lapse, and the relaxed app's heartbeat falls back at its own
// later one, not at either sweep before it.
func TestMultiAppUEFallsBackOnEachAppsWindow(t *testing.T) {
	tight := std()
	tight.Name = "tight"
	tight.ExpiryFactor = 0.1 // 27 s, a 29.7 s window; std's is 275 s
	for name, mk := range clocks {
		t.Run(name, func(t *testing.T) {
			s := simtime.NewScheduler(1)
			sub := &fakeSub{relays: map[hbmsg.DeviceID]*fakeLink{"a": {id: "a", free: 4}},
				offer: []hbmsg.DeviceID{"a"}}
			var rec trace.Recorder
			ue, err := NewUEOn(mk(s), sub, sub, UEConfig{
				ID: "ue", Apps: apps(std(), tight),
				Rules: defaultRules(), StartOffset: time.Second, Tracer: &rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := ue.Start(); err != nil {
				t.Fatal(err)
			}
			if err := s.RunUntil(300 * time.Second); err != nil {
				t.Fatal(err)
			}
			// std beats at 1 s and 271 s, tight at 4 s and 274 s, all
			// forwarded (the tight fallback drops the link; 271 s rematches).
			// Inside 300 s, tight's first window closes at 33.7 s and std's
			// first at 276 s; the second heartbeats' are still open.
			lapse := func(p hbmsg.AppProfile, origin time.Duration) time.Duration {
				return origin + FeedbackWindow(0, p.Expiry())
			}
			want := []trace.Event{
				{At: lapse(tight, 4*time.Second), App: "tight", Seq: 2},
				{At: lapse(std(), time.Second), App: std().Name, Seq: 1},
			}
			got := rec.ByKind(trace.KindFallback)
			if len(got) != len(want) {
				t.Fatalf("fallbacks = %+v, want %d", got, len(want))
			}
			for i, ev := range got {
				if ev.At != want[i].At || ev.App != want[i].App || ev.Seq != want[i].Seq {
					t.Fatalf("fallback %d = %+v at %v, want %s seq %d at %v",
						i, ev, ev.At, want[i].App, want[i].Seq, want[i].At)
				}
			}
			if us := ue.Stats(); us.SentViaD2D != 4 || us.FallbackResends != 2 || us.AcksReceived != 0 {
				t.Fatalf("stats = %+v, want 4 forwards and 2 fallbacks", us)
			}
			if len(sub.direct) != 2 || sub.direct[0][0].Seq != 2 || sub.direct[1][0].Seq != 1 {
				t.Fatalf("cellular batches = %v, want the resends of seq 2 then seq 1", sub.direct)
			}
		})
	}
}

func TestMultiAppValidation(t *testing.T) {
	r := newRig(t, 35)
	node, err := r.medium.Join("x", d2d.RoleUE, geo.Static{}, energy.NewLedger())
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	modem, err := r.bs.Attach("x", r.model, rrc.DefaultConfig(), energy.NewLedger())
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	bad := UEConfig{
		ID: "x", Apps: apps(std(), hbmsg.AppProfile{Name: "broken"}), Rules: defaultRules(),
	}
	if _, err := NewUE(r.sched, node, modem, bad); err == nil {
		t.Fatal("invalid extra profile accepted")
	}
}
