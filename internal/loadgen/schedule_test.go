package loadgen

import (
	"testing"
	"time"

	"d2dhb/internal/hbmsg"
	"d2dhb/internal/rec"
)

func TestParseArrivalShape(t *testing.T) {
	cases := map[string]ArrivalShape{
		"steady": ArrivalSteady, "ramp": ArrivalRamp,
		"spike": ArrivalSpike, "storm": ArrivalSpike,
	}
	for in, want := range cases {
		got, err := ParseArrivalShape(in)
		if err != nil || got != want {
			t.Errorf("ParseArrivalShape(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseArrivalShape("bogus"); err == nil {
		t.Error("bogus shape accepted")
	}
}

func TestScheduleOffsets(t *testing.T) {
	const n = 10
	spike := Schedule{Shape: ArrivalSpike, Window: time.Second}
	for i := 0; i < n; i++ {
		if off := spike.StartOffset(i, n); off != 0 {
			t.Fatalf("spike offset[%d] = %v", i, off)
		}
	}
	ramp := Schedule{Shape: ArrivalRamp, Window: time.Second}
	var prev time.Duration = -1
	for i := 0; i < n; i++ {
		off := ramp.StartOffset(i, n)
		if off <= prev && i > 0 {
			t.Fatalf("ramp offsets not strictly increasing at %d", i)
		}
		if off >= time.Second {
			t.Fatalf("ramp offset[%d] = %v beyond window", i, off)
		}
		prev = off
	}
	if got := ramp.StartOffset(5, n); got != 500*time.Millisecond {
		t.Fatalf("ramp midpoint = %v", got)
	}
	// Single UE and zero window degenerate to zero.
	if (Schedule{Shape: ArrivalRamp}).StartOffset(3, 7) != 0 {
		t.Fatal("zero window should yield zero offset")
	}
	if (Schedule{Shape: ArrivalSteady, Window: time.Second}).StartOffset(0, 1) != 0 {
		t.Fatal("single UE should start immediately")
	}
}

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
	recorder := rec.NewRecorder()
	r, err := New(Config{
		UEs: ues, Profiles: []hbmsg.AppProfile{fastProfile(period)},
		Duration: duration, Recorder: recorder,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acked != rep.Sent || rep.Timeouts != 0 {
		t.Fatalf("acked %d of %d, %d timeouts", rep.Acked, rep.Sent, rep.Timeouts)
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
		// A send is stamped once its UE has woken, swept and found its
		// connection: shortly after a grid instant, never shortly before.
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
