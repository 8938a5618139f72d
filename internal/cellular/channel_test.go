package cellular

import (
	"testing"
	"time"

	"d2dhb/internal/energy"
	"d2dhb/internal/hbmsg"
)

func TestChannelConfigValidate(t *testing.T) {
	if err := DefaultChannelConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := DefaultChannelConfig()
	bad.Window = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero window accepted")
	}
	bad = DefaultChannelConfig()
	bad.CapacityPerWindow = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestChannelTracksWindowLoad(t *testing.T) {
	s, bs := newBS(t)
	cfg := ChannelConfig{Window: 10 * time.Second, CapacityPerWindow: 10}
	if err := bs.EnableControlChannel(cfg); err != nil {
		t.Fatalf("EnableControlChannel: %v", err)
	}
	m, _ := attach(t, bs, "dev-1")

	// One send at t=0: setup (5 msgs) in window 0, release (3 msgs) at
	// t=5s, still window 0.
	if err := m.Send([]hbmsg.Heartbeat{hb("dev-1", 1, 0, time.Minute)}, energy.PhaseCellular); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// Another send at t=60s: setup in window 6, release at 65s in window 6.
	if _, err := s.At(60*time.Second, func() {
		if err := m.Send([]hbmsg.Heartbeat{hb("dev-1", 2, 60*time.Second, time.Minute)}, energy.PhaseCellular); err != nil {
			t.Errorf("Send: %v", err)
		}
	}); err != nil {
		t.Fatalf("At: %v", err)
	}
	s.Run()
	rep := bs.ChannelReport()
	if rep.Windows != 2 {
		t.Fatalf("windows = %d, want 2", rep.Windows)
	}
	if rep.TotalMessages != 16 {
		t.Fatalf("total = %d, want 16", rep.TotalMessages)
	}
	if rep.PeakWindowLoad != 8 {
		t.Fatalf("peak = %d, want 8", rep.PeakWindowLoad)
	}
	if rep.OverloadedWindows != 0 || rep.DroppedMessages != 0 {
		t.Fatalf("unexpected overload: %+v", rep)
	}
	if got := rep.PeakUtilization(cfg); got != 0.8 {
		t.Fatalf("peak utilization = %v, want 0.8", got)
	}
}

func TestChannelOverloadDetection(t *testing.T) {
	s, bs := newBS(t)
	cfg := ChannelConfig{Window: time.Minute, CapacityPerWindow: 20}
	if err := bs.EnableControlChannel(cfg); err != nil {
		t.Fatalf("EnableControlChannel: %v", err)
	}
	// Five devices each doing a full cycle (8 msgs) in the same window:
	// 40 messages ≫ 20 capacity.
	for i := 0; i < 5; i++ {
		id := hbmsg.DeviceID(rune('a' + i))
		m, _ := attach(t, bs, id)
		if err := m.Send([]hbmsg.Heartbeat{hb(id, 1, 0, time.Minute)}, energy.PhaseCellular); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	s.Run()
	rep := bs.ChannelReport()
	if rep.OverloadedWindows != 1 {
		t.Fatalf("overloaded windows = %d, want 1", rep.OverloadedWindows)
	}
	if rep.DroppedMessages != 40-20 {
		t.Fatalf("dropped = %d, want 20", rep.DroppedMessages)
	}
	if rep.PeakUtilization(cfg) != 2.0 {
		t.Fatalf("peak utilization = %v, want 2.0", rep.PeakUtilization(cfg))
	}
}

func TestChannelEnableAfterAttach(t *testing.T) {
	s, bs := newBS(t)
	m, _ := attach(t, bs, "dev-1")
	if err := bs.EnableControlChannel(DefaultChannelConfig()); err != nil {
		t.Fatalf("EnableControlChannel: %v", err)
	}
	if err := m.Send([]hbmsg.Heartbeat{hb("dev-1", 1, 0, time.Minute)}, energy.PhaseCellular); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.Run()
	if bs.ChannelReport().TotalMessages == 0 {
		t.Fatal("pre-attached modem not wired into channel")
	}
}

func TestChannelReportWithoutTracking(t *testing.T) {
	_, bs := newBS(t)
	if rep := bs.ChannelReport(); rep != (ChannelReport{}) {
		t.Fatalf("report without tracking = %+v, want zero", rep)
	}
	bad := ChannelConfig{}
	if err := bs.EnableControlChannel(bad); err == nil {
		t.Fatal("invalid channel config accepted")
	}
}
