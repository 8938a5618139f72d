package loadgen

import (
	"testing"
	"time"
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
