package rrc

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"d2dhb/internal/simtime"
)

func newMachine(t *testing.T) (*simtime.Scheduler, *Machine) {
	t.Helper()
	s := simtime.NewScheduler(1)
	m, err := NewMachine(s, DefaultConfig())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return s, m
}

func TestNewMachineValidation(t *testing.T) {
	s := simtime.NewScheduler(1)
	if _, err := NewMachine(nil, DefaultConfig()); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	bad := DefaultConfig()
	bad.SetupMessages = 0
	if _, err := NewMachine(s, bad); err == nil {
		t.Fatal("zero setup messages accepted")
	}
	bad = DefaultConfig()
	bad.ReleaseMessages = 0
	if _, err := NewMachine(s, bad); err == nil {
		t.Fatal("zero release messages accepted")
	}
	bad = DefaultConfig()
	bad.InactivityTail = 0
	if _, err := NewMachine(s, bad); err == nil {
		t.Fatal("zero tail accepted")
	}
	bad = DefaultConfig()
	bad.LargePayloadMessages = -1
	if _, err := NewMachine(s, bad); err == nil {
		t.Fatal("negative large-payload messages accepted")
	}
}

func TestStartsIdle(t *testing.T) {
	_, m := newMachine(t)
	if m.State() != Idle {
		t.Fatalf("initial state = %v, want IDLE", m.State())
	}
}

func TestSendPromotesAndCountsSignaling(t *testing.T) {
	s, m := newMachine(t)
	if err := m.Send(54); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if m.State() != Connected {
		t.Fatalf("state after Send = %v, want CONNECTED", m.State())
	}
	c := m.Counters()
	if c.Promotions != 1 || c.L3Messages != DefaultConfig().SetupMessages {
		t.Fatalf("counters = %+v, want 1 promotion / %d L3 msgs", c, DefaultConfig().SetupMessages)
	}
	// Let the inactivity timer fire.
	s.Run()
	if m.State() != Idle {
		t.Fatalf("state after tail = %v, want IDLE", m.State())
	}
	c = m.Counters()
	want := DefaultConfig().SetupMessages + DefaultConfig().ReleaseMessages
	if c.L3Messages != want {
		t.Fatalf("L3 messages = %d, want %d", c.L3Messages, want)
	}
	if c.Releases != 1 {
		t.Fatalf("releases = %d, want 1", c.Releases)
	}
}

func TestFullCycleMessageCountMatchesFig15Slope(t *testing.T) {
	// Fig. 15: the original system generates ≈8 layer-3 messages per
	// heartbeat transmission (80 at 10 transmissions).
	cfg := DefaultConfig()
	s := simtime.NewScheduler(1)
	m, err := NewMachine(s, cfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	const transmissions = 10
	for i := 0; i < transmissions; i++ {
		at := time.Duration(i) * 270 * time.Second // WeChat period ≫ tail
		if _, err := s.At(at, func() {
			if err := m.Send(54); err != nil {
				t.Errorf("Send: %v", err)
			}
		}); err != nil {
			t.Fatalf("At: %v", err)
		}
	}
	s.Run()
	got := m.Counters().L3Messages
	if got != 80 {
		t.Fatalf("L3 messages after %d transmissions = %d, want 80", transmissions, got)
	}
}

func TestBackToBackSendsShareOneConnection(t *testing.T) {
	// Sends within the inactivity tail must not re-promote: this is the
	// aggregation benefit the relay exploits.
	s, m := newMachine(t)
	for i := 0; i < 5; i++ {
		at := time.Duration(i) * time.Second // < 5s tail
		if _, err := s.At(at, func() {
			if err := m.Send(54); err != nil {
				t.Errorf("Send: %v", err)
			}
		}); err != nil {
			t.Fatalf("At: %v", err)
		}
	}
	s.Run()
	c := m.Counters()
	if c.Promotions != 1 || c.Releases != 1 {
		t.Fatalf("promotions/releases = %d/%d, want 1/1", c.Promotions, c.Releases)
	}
	if c.Transmissions != 5 {
		t.Fatalf("transmissions = %d, want 5", c.Transmissions)
	}
}

func TestLargePayloadAddsSignaling(t *testing.T) {
	s, m := newMachine(t)
	if err := m.Send(500); err != nil { // > 128 B threshold
		t.Fatalf("Send: %v", err)
	}
	s.Run()
	cfg := DefaultConfig()
	want := cfg.SetupMessages + cfg.ReleaseMessages + cfg.LargePayloadMessages
	if got := m.Counters().L3Messages; got != want {
		t.Fatalf("L3 messages = %d, want %d", got, want)
	}
}

func TestSendRejectsNegativePayload(t *testing.T) {
	_, m := newMachine(t)
	if err := m.Send(-1); err == nil {
		t.Fatal("negative payload accepted")
	}
}

func TestConnectedTimeAccounting(t *testing.T) {
	s, m := newMachine(t)
	if err := m.Send(54); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.Run()
	if got, want := m.Counters().ConnectedTime, DefaultConfig().InactivityTail; got != want {
		t.Fatalf("connected time = %v, want %v", got, want)
	}
}

func TestConnectedTimeIncludesInProgress(t *testing.T) {
	s, m := newMachine(t)
	if err := m.Send(54); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := s.RunUntil(2 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if got := m.Counters().ConnectedTime; got != 2*time.Second {
		t.Fatalf("in-progress connected time = %v, want 2s", got)
	}
}

func TestForceRelease(t *testing.T) {
	s, m := newMachine(t)
	if err := m.Send(54); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m.ForceRelease()
	if m.State() != Idle {
		t.Fatalf("state = %v, want IDLE", m.State())
	}
	s.Run()
	c := m.Counters()
	if c.Releases != 1 {
		t.Fatalf("releases = %d, want exactly 1 (timer must not double-release)", c.Releases)
	}
	// ForceRelease when already idle is a no-op.
	m.ForceRelease()
	if got := m.Counters().Releases; got != 1 {
		t.Fatalf("releases after idle ForceRelease = %d, want 1", got)
	}
}

func TestStateString(t *testing.T) {
	if Idle.String() != "IDLE" || Connected.String() != "CONNECTED" {
		t.Fatal("state strings wrong")
	}
	if got := State(9).String(); got != "state(9)" {
		t.Fatalf("unknown state string = %q", got)
	}
}

// TestQuickSignalingInvariant property-checks that for any schedule of small
// sends, L3Messages == promotions×setup + releases×release and promotions
// equals the number of idle-gap-separated send bursts.
func TestQuickSignalingInvariant(t *testing.T) {
	cfg := DefaultConfig()
	prop := func(gapsSec []uint8) bool {
		s := simtime.NewScheduler(2)
		m, err := NewMachine(s, cfg)
		if err != nil {
			return false
		}
		at := time.Duration(0)
		wantPromotions := 0
		prevEnd := time.Duration(-1)
		for _, g := range gapsSec {
			at += time.Duration(g) * time.Second
			if prevEnd < 0 || at > prevEnd {
				wantPromotions++
			}
			prevEnd = at + cfg.InactivityTail
			send := at
			if _, err := s.At(send, func() {
				if err := m.Send(54); err != nil {
					t.Errorf("Send: %v", err)
				}
			}); err != nil {
				return false
			}
		}
		s.Run()
		c := m.Counters()
		if c.Promotions != wantPromotions || c.Releases != wantPromotions {
			return false
		}
		return c.L3Messages == c.Promotions*cfg.SetupMessages+c.Releases*cfg.ReleaseMessages
	}
	qc := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(prop, qc); err != nil {
		t.Fatal(err)
	}
}
