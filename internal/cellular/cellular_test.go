package cellular

import (
	"errors"
	"testing"
	"time"

	"d2dhb/internal/energy"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/rrc"
	"d2dhb/internal/simtime"
)

func newBS(t *testing.T) (*simtime.Scheduler, *BaseStation) {
	t.Helper()
	s := simtime.NewScheduler(1)
	bs, err := NewBaseStation(s)
	if err != nil {
		t.Fatalf("NewBaseStation: %v", err)
	}
	return s, bs
}

func attach(t *testing.T, bs *BaseStation, id hbmsg.DeviceID) (*Modem, *energy.Ledger) {
	t.Helper()
	led := energy.NewLedger()
	m, err := bs.Attach(id, energy.DefaultModel(), rrc.DefaultConfig(), led)
	if err != nil {
		t.Fatalf("Attach(%s): %v", id, err)
	}
	return m, led
}

func hb(src hbmsg.DeviceID, seq uint64, origin, expiry time.Duration) hbmsg.Heartbeat {
	return hbmsg.Heartbeat{App: "t", Src: src, Seq: seq, Origin: origin, Expiry: expiry, Size: 54}
}

func TestNewBaseStationNilScheduler(t *testing.T) {
	if _, err := NewBaseStation(nil); err == nil {
		t.Fatal("nil scheduler accepted")
	}
}

func TestAttachValidation(t *testing.T) {
	_, bs := newBS(t)
	led := energy.NewLedger()
	if _, err := bs.Attach("", energy.DefaultModel(), rrc.DefaultConfig(), led); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := bs.Attach("a", energy.DefaultModel(), rrc.DefaultConfig(), nil); err == nil {
		t.Fatal("nil ledger accepted")
	}
	var badModel energy.Model
	if _, err := bs.Attach("a", badModel, rrc.DefaultConfig(), led); err == nil {
		t.Fatal("invalid model accepted")
	}
	var badRRC rrc.Config
	if _, err := bs.Attach("a", energy.DefaultModel(), badRRC, led); err == nil {
		t.Fatal("invalid rrc config accepted")
	}
	if _, err := bs.Attach("a", energy.DefaultModel(), rrc.DefaultConfig(), led); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := bs.Attach("a", energy.DefaultModel(), rrc.DefaultConfig(), led); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("err = %v, want ErrDuplicateID", err)
	}
}

func TestSendChargesEnergyAndCountsSignaling(t *testing.T) {
	s, bs := newBS(t)
	m, led := attach(t, bs, "dev-1")
	model := energy.DefaultModel()

	if err := m.Send([]hbmsg.Heartbeat{hb("dev-1", 1, 0, time.Minute)}, energy.PhaseCellular); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := led.Phase(energy.PhaseCellular); got != model.CellularTxCharge(1, 54) {
		t.Fatalf("charge = %v, want %v", got, model.CellularTxCharge(1, 54))
	}
	s.Run()
	cfg := rrc.DefaultConfig()
	if got, want := m.Counters().L3Messages, cfg.SetupMessages+cfg.ReleaseMessages; got != want {
		t.Fatalf("L3 = %d, want %d", got, want)
	}
	if got := bs.TotalL3Messages(); got != m.Counters().L3Messages {
		t.Fatalf("bs total L3 = %d, want %d", got, m.Counters().L3Messages)
	}
	if got := bs.TotalTransmissions(); got != 1 {
		t.Fatalf("transmissions = %d, want 1", got)
	}
}

func TestSendEmptyBatchRejected(t *testing.T) {
	_, bs := newBS(t)
	m, _ := attach(t, bs, "dev-1")
	if err := m.Send(nil, energy.PhaseCellular); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestAggregatedSendIsOneConnection(t *testing.T) {
	s, bs := newBS(t)
	m, led := attach(t, bs, "relay-1")
	model := energy.DefaultModel()

	batch := []hbmsg.Heartbeat{
		hb("ue-1", 1, 0, time.Minute),
		hb("ue-2", 1, 0, time.Minute),
		hb("relay-1", 1, 0, time.Minute),
	}
	if err := m.Send(batch, energy.PhaseCellular); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.Run()
	c := m.Counters()
	if c.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1 (single connection)", c.Promotions)
	}
	if got := led.Phase(energy.PhaseCellular); got != model.CellularTxCharge(3, 3*54) {
		t.Fatalf("charge = %v, want aggregated %v", got, model.CellularTxCharge(3, 3*54))
	}
	total, late := bs.Deliveries()
	if total != 3 || late != 0 {
		t.Fatalf("deliveries = %d/%d late, want 3/0", total, late)
	}
}

func TestDeliveryObserverAndLateness(t *testing.T) {
	s, bs := newBS(t)
	m, _ := attach(t, bs, "dev-1")

	var seen []Delivery
	bs.OnDeliver(func(d Delivery) { seen = append(seen, d) })

	// Deliver one on-time and one expired heartbeat at t=30s.
	if _, err := s.At(30*time.Second, func() {
		batch := []hbmsg.Heartbeat{
			hb("ue-1", 1, 0, time.Minute),    // deadline 60s: on time
			hb("ue-2", 1, 0, 10*time.Second), // deadline 10s: late
		}
		if err := m.Send(batch, energy.PhaseCellular); err != nil {
			t.Errorf("Send: %v", err)
		}
	}); err != nil {
		t.Fatalf("At: %v", err)
	}
	s.Run()
	if len(seen) != 2 {
		t.Fatalf("observed %d deliveries, want 2", len(seen))
	}
	if !seen[0].OnTime || seen[1].OnTime {
		t.Fatalf("on-time flags = %v/%v, want true/false", seen[0].OnTime, seen[1].OnTime)
	}
	if seen[0].Via != "dev-1" || seen[0].At != 30*time.Second {
		t.Fatalf("delivery metadata wrong: %+v", seen[0])
	}
	total, late := bs.Deliveries()
	if total != 2 || late != 1 {
		t.Fatalf("deliveries = %d/%d late, want 2/1", total, late)
	}
}

func TestFallbackPhaseAccounting(t *testing.T) {
	_, bs := newBS(t)
	m, led := attach(t, bs, "dev-1")
	if err := m.Send([]hbmsg.Heartbeat{hb("dev-1", 1, 0, time.Minute)}, energy.PhaseFallback); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if led.Phase(energy.PhaseFallback) == 0 {
		t.Fatal("fallback phase not charged")
	}
	if led.Phase(energy.PhaseCellular) != 0 {
		t.Fatal("cellular phase charged for fallback send")
	}
}

func TestModemLookupAndList(t *testing.T) {
	_, bs := newBS(t)
	attach(t, bs, "a")
	attach(t, bs, "b")
	if _, ok := bs.Modem("a"); !ok {
		t.Fatal("modem a not found")
	}
	if _, ok := bs.Modem("ghost"); ok {
		t.Fatal("ghost modem found")
	}
	modems := bs.Modems()
	if len(modems) != 2 || modems[0].ID() != "a" || modems[1].ID() != "b" {
		t.Fatalf("Modems() = %v", modems)
	}
}

func TestShutdownReleasesConnection(t *testing.T) {
	_, bs := newBS(t)
	m, _ := attach(t, bs, "dev-1")
	if err := m.Send([]hbmsg.Heartbeat{hb("dev-1", 1, 0, time.Minute)}, energy.PhaseCellular); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m.Shutdown()
	if m.State() != rrc.Idle {
		t.Fatalf("state after shutdown = %v, want IDLE", m.State())
	}
}
