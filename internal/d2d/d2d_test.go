package d2d

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"d2dhb/internal/energy"
	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/radio"
	"d2dhb/internal/simtime"
)

type fixture struct {
	sched  *simtime.Scheduler
	medium *Medium
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	s := simtime.NewScheduler(1)
	m, err := NewMedium(s, Config{Profile: radio.WiFiDirectProfile(), Model: energy.DefaultModel()})
	if err != nil {
		t.Fatalf("NewMedium: %v", err)
	}
	return &fixture{sched: s, medium: m}
}

func (f *fixture) join(t *testing.T, id hbmsg.DeviceID, role Role, at geo.Point) (*Node, *energy.Ledger) {
	t.Helper()
	led := energy.NewLedger()
	n, err := f.medium.Join(id, role, geo.Static{P: at}, led)
	if err != nil {
		t.Fatalf("Join(%s): %v", id, err)
	}
	return n, led
}

func stdHB(seq uint64) hbmsg.Heartbeat {
	return hbmsg.Heartbeat{App: "t", Src: "ue-1", Seq: seq, Expiry: time.Minute, Size: 54}
}

func TestNewMediumValidation(t *testing.T) {
	s := simtime.NewScheduler(1)
	good := Config{Profile: radio.WiFiDirectProfile(), Model: energy.DefaultModel()}
	if _, err := NewMedium(nil, good); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	bad := good
	bad.Profile.BitrateMbps = 0
	if _, err := NewMedium(s, bad); err == nil {
		t.Fatal("invalid profile accepted")
	}
	bad = good
	bad.Model.CellularTxBase = 0
	if _, err := NewMedium(s, bad); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestJoinValidation(t *testing.T) {
	f := newFixture(t)
	led := energy.NewLedger()
	mob := geo.Static{}
	if _, err := f.medium.Join("", RoleUE, mob, led); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := f.medium.Join("a", RoleUE, nil, led); err == nil {
		t.Fatal("nil mobility accepted")
	}
	if _, err := f.medium.Join("a", RoleUE, mob, nil); err == nil {
		t.Fatal("nil ledger accepted")
	}
	if _, err := f.medium.Join("a", Role(9), mob, led); err == nil {
		t.Fatal("invalid role accepted")
	}
	if _, err := f.medium.Join("a", RoleUE, mob, led); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if _, err := f.medium.Join("a", RoleUE, mob, led); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate id err = %v, want ErrDuplicateID", err)
	}
}

func TestScanFindsAcceptingPeersInRange(t *testing.T) {
	f := newFixture(t)
	ue, _ := f.join(t, "ue-1", RoleUE, geo.Point{X: 0, Y: 0})
	near, _ := f.join(t, "relay-near", RoleRelay, geo.Point{X: 2, Y: 0})
	far, _ := f.join(t, "relay-far", RoleRelay, geo.Point{X: 10, Y: 0})
	_, _ = f.join(t, "relay-out", RoleRelay, geo.Point{X: 500, Y: 0})
	off, _ := f.join(t, "relay-off", RoleRelay, geo.Point{X: 3, Y: 0})

	near.SetAccepting(true)
	near.Advertise(5, MaxGroupOwnerIntent)
	far.SetAccepting(true)
	far.Advertise(5, MaxGroupOwnerIntent)
	off.SetAccepting(false) // in range but not accepting

	peers := ue.Scan()
	if len(peers) != 2 {
		t.Fatalf("found %d peers, want 2: %+v", len(peers), peers)
	}
	// Nearest-first ranking (Section III-C: match the shortest distance).
	if peers[0].ID != "relay-near" || peers[1].ID != "relay-far" {
		t.Fatalf("ranking wrong: %v then %v", peers[0].ID, peers[1].ID)
	}
	if peers[0].EstDistance >= peers[1].EstDistance {
		t.Fatalf("distance estimates not ordered: %v vs %v", peers[0].EstDistance, peers[1].EstDistance)
	}
	if peers[0].Intent != MaxGroupOwnerIntent || peers[0].FreeCapacity != 5 {
		t.Fatalf("advertised data wrong: %+v", peers[0])
	}
}

func TestScanChargesDiscoveryEnergy(t *testing.T) {
	f := newFixture(t)
	model := energy.DefaultModel()
	ue, ueLed := f.join(t, "ue-1", RoleUE, geo.Point{X: 0, Y: 0})
	relay, relayLed := f.join(t, "relay-1", RoleRelay, geo.Point{X: 1, Y: 0})
	relay.SetAccepting(true)

	ue.Scan()
	if got := ueLed.Phase(energy.PhaseDiscovery); got != model.UEDiscovery {
		t.Fatalf("UE discovery charge = %v, want %v", got, model.UEDiscovery)
	}
	// Beacon responses ride the idle baseline; the relay's discovery
	// phase is billed at group formation, not per bystander scan.
	if got := relayLed.Phase(energy.PhaseDiscovery); got != 0 {
		t.Fatalf("relay charged %v at scan, want 0", got)
	}
	if _, err := ue.Connect("relay-1"); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if got := relayLed.Phase(energy.PhaseDiscovery); got != model.RelayDiscovery {
		t.Fatalf("relay discovery charge after connect = %v, want %v", got, model.RelayDiscovery)
	}
	// The initiator pays a little more than the responder (Table III).
	if ueLed.Phase(energy.PhaseDiscovery) <= relayLed.Phase(energy.PhaseDiscovery) {
		t.Fatal("UE discovery not more expensive than relay's")
	}
	// A second scan by the UE does not re-bill the connected relay.
	before := relayLed.Phase(energy.PhaseDiscovery)
	ue.Scan()
	if got := relayLed.Phase(energy.PhaseDiscovery); got != before {
		t.Fatalf("rescan re-billed the relay: %v vs %v", got, before)
	}
}

func TestConnectEstablishesLinkAndChargesBoth(t *testing.T) {
	f := newFixture(t)
	model := energy.DefaultModel()
	ue, ueLed := f.join(t, "ue-1", RoleUE, geo.Point{X: 0, Y: 0})
	relay, relayLed := f.join(t, "relay-1", RoleRelay, geo.Point{X: 1, Y: 0})
	relay.SetAccepting(true)

	link, err := ue.Connect("relay-1")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if !link.Open() {
		t.Fatal("link not open")
	}
	if link.Initiator() != ue || link.Responder() != relay {
		t.Fatal("link endpoints wrong")
	}
	if got := ueLed.Phase(energy.PhaseConnection); got != model.UEConnection {
		t.Fatalf("UE connection charge = %v, want %v", got, model.UEConnection)
	}
	if got := relayLed.Phase(energy.PhaseConnection); got != model.RelayConnection {
		t.Fatalf("relay connection charge = %v, want %v", got, model.RelayConnection)
	}
	if len(ue.Links()) != 1 || len(relay.Links()) != 1 {
		t.Fatal("links not registered on both endpoints")
	}
}

func TestConnectIdempotent(t *testing.T) {
	f := newFixture(t)
	ue, ueLed := f.join(t, "ue-1", RoleUE, geo.Point{X: 0, Y: 0})
	relay, _ := f.join(t, "relay-1", RoleRelay, geo.Point{X: 1, Y: 0})
	relay.SetAccepting(true)

	l1, err := ue.Connect("relay-1")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	first := ueLed.Phase(energy.PhaseConnection)
	l2, err := ue.Connect("relay-1")
	if err != nil {
		t.Fatalf("second Connect: %v", err)
	}
	if l1 != l2 {
		t.Fatal("reconnect created a new link")
	}
	if got := ueLed.Phase(energy.PhaseConnection); got != first {
		t.Fatal("reconnect charged connection energy again")
	}
}

func TestConnectErrors(t *testing.T) {
	f := newFixture(t)
	ue, _ := f.join(t, "ue-1", RoleUE, geo.Point{X: 0, Y: 0})
	relay, _ := f.join(t, "relay-1", RoleRelay, geo.Point{X: 1, Y: 0})
	farRelay, _ := f.join(t, "relay-far", RoleRelay, geo.Point{X: 1000, Y: 0})
	farRelay.SetAccepting(true)

	if _, err := ue.Connect("ghost"); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
	if _, err := ue.Connect("relay-1"); !errors.Is(err, ErrNotAccepting) {
		t.Fatalf("err = %v, want ErrNotAccepting", err)
	}
	relay.SetAccepting(true)
	if _, err := ue.Connect("relay-far"); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}

func TestSendDeliversAndCharges(t *testing.T) {
	f := newFixture(t)
	model := energy.DefaultModel()
	ue, ueLed := f.join(t, "ue-1", RoleUE, geo.Point{X: 0, Y: 0})
	relay, relayLed := f.join(t, "relay-1", RoleRelay, geo.Point{X: 1, Y: 0})
	relay.SetAccepting(true)

	var got []hbmsg.Heartbeat
	relay.OnReceive(func(hb hbmsg.Heartbeat, _ *Link) { got = append(got, hb) })

	link, err := ue.Connect("relay-1")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if err := link.Send(ue, stdHB(1)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("delivered = %v", got)
	}
	if got := ueLed.Phase(energy.PhaseD2DSend); got != model.D2DSendCharge(54, 1) {
		t.Fatalf("send charge = %v, want %v", got, model.D2DSendCharge(54, 1))
	}
	// First transfer over a link carries the group wake-up cost.
	if got := relayLed.Phase(energy.PhaseD2DRecv); got != model.D2DRecvCharge(54, 1, true) {
		t.Fatalf("recv charge = %v, want first-of-link %v", got, model.D2DRecvCharge(54, 1, true))
	}

	// Second transfer is cheaper (steady state).
	before := relayLed.Phase(energy.PhaseD2DRecv)
	if err := link.Send(ue, stdHB(2)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	marginal := float64(relayLed.Phase(energy.PhaseD2DRecv) - before)
	want := float64(model.D2DRecvCharge(54, 1, false))
	if diff := marginal - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("steady recv charge = %v, want %v", marginal, want)
	}
	if link.Transfers() != 2 {
		t.Fatalf("transfers = %d, want 2", link.Transfers())
	}
}

func TestSendRelayToUEFeedbackDirection(t *testing.T) {
	f := newFixture(t)
	ue, _ := f.join(t, "ue-1", RoleUE, geo.Point{X: 0, Y: 0})
	relay, _ := f.join(t, "relay-1", RoleRelay, geo.Point{X: 1, Y: 0})
	relay.SetAccepting(true)
	var ueGot int
	ue.OnReceive(func(hbmsg.Heartbeat, *Link) { ueGot++ })

	link, err := ue.Connect("relay-1")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if err := link.Send(relay, stdHB(9)); err != nil {
		t.Fatalf("relay→UE Send: %v", err)
	}
	if ueGot != 1 {
		t.Fatalf("UE received %d, want 1", ueGot)
	}
}

func TestSendOutOfRangeClosesLink(t *testing.T) {
	f := newFixture(t)
	s := f.sched
	ue, _ := f.join(t, "ue-1", RoleUE, geo.Point{X: 0, Y: 0})
	// The relay walks straight out of range.
	led := energy.NewLedger()
	relay, err := f.medium.Join("relay-1", RoleRelay,
		geo.Line{From: geo.Point{X: 1, Y: 0}, To: geo.Point{X: 500, Y: 0}, Speed: 10}, led)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	relay.SetAccepting(true)

	link, err := ue.Connect("relay-1")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	// Advance time far enough for the relay to leave range.
	if err := s.RunUntil(time.Minute); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if err := link.Send(ue, stdHB(1)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if link.Open() {
		t.Fatal("link still open after range break")
	}
	if err := link.Send(ue, stdHB(2)); !errors.Is(err, ErrLinkClosed) {
		t.Fatalf("err = %v, want ErrLinkClosed", err)
	}
}

func TestSendFromNonEndpoint(t *testing.T) {
	f := newFixture(t)
	ue, _ := f.join(t, "ue-1", RoleUE, geo.Point{X: 0, Y: 0})
	relay, _ := f.join(t, "relay-1", RoleRelay, geo.Point{X: 1, Y: 0})
	stranger, _ := f.join(t, "ue-2", RoleUE, geo.Point{X: 2, Y: 0})
	relay.SetAccepting(true)
	link, err := ue.Connect("relay-1")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if err := link.Send(stranger, stdHB(1)); err == nil {
		t.Fatal("non-endpoint send accepted")
	}
}

func TestSendLossInEdgeZone(t *testing.T) {
	// At ~90 % of max range transfers fail with noticeable probability but
	// the link survives the failure.
	f := newFixture(t)
	prof := f.medium.Profile()
	d := prof.MaxRange() * 0.9
	ue, _ := f.join(t, "ue-1", RoleUE, geo.Point{X: 0, Y: 0})
	relay, _ := f.join(t, "relay-1", RoleRelay, geo.Point{X: d, Y: 0})
	relay.SetAccepting(true)
	delivered := 0
	relay.OnReceive(func(hbmsg.Heartbeat, *Link) { delivered++ })

	link, err := ue.Connect("relay-1")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	failures := 0
	const tries = 500
	for i := 0; i < tries; i++ {
		if err := link.Send(ue, stdHB(uint64(i))); err != nil {
			if !errors.Is(err, ErrTransferFailed) {
				t.Fatalf("unexpected error: %v", err)
			}
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no losses in edge zone")
	}
	if delivered+failures != tries {
		t.Fatalf("delivered %d + failures %d != %d", delivered, failures, tries)
	}
	if !link.Open() {
		t.Fatal("loss closed the link")
	}
}

func TestLinkClose(t *testing.T) {
	f := newFixture(t)
	ue, _ := f.join(t, "ue-1", RoleUE, geo.Point{X: 0, Y: 0})
	relay, _ := f.join(t, "relay-1", RoleRelay, geo.Point{X: 1, Y: 0})
	relay.SetAccepting(true)
	link, err := ue.Connect("relay-1")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	link.Close()
	link.Close() // idempotent
	if len(ue.Links()) != 0 || len(relay.Links()) != 0 {
		t.Fatal("links not removed on close")
	}
}

func TestLinkHelpers(t *testing.T) {
	f := newFixture(t)
	ue, _ := f.join(t, "ue-1", RoleUE, geo.Point{X: 0, Y: 0})
	relay, _ := f.join(t, "relay-1", RoleRelay, geo.Point{X: 3, Y: 4})
	relay.SetAccepting(true)
	link, err := ue.Connect("relay-1")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if got := link.Distance(); got != 5 {
		t.Fatalf("Distance = %v, want 5", got)
	}
	if link.Peer(ue) != relay || link.Peer(relay) != ue {
		t.Fatal("Peer wrong")
	}
	if link.TransferTime(54) <= 0 {
		t.Fatal("TransferTime not positive")
	}
}

func TestIntentForLoad(t *testing.T) {
	tests := []struct {
		load, capacity, want int
	}{
		{0, 10, 15},
		{5, 10, 7},
		{10, 10, 0},
		{15, 10, 0},
		{-1, 10, 15},
		{0, 0, 0},
	}
	for _, tt := range tests {
		if got := IntentForLoad(tt.load, tt.capacity); got != tt.want {
			t.Errorf("IntentForLoad(%d, %d) = %d, want %d", tt.load, tt.capacity, got, tt.want)
		}
	}
}

func TestRoleString(t *testing.T) {
	if RoleUE.String() != "ue" || RoleRelay.String() != "relay" {
		t.Fatal("role strings wrong")
	}
	if Role(5).String() != "role(5)" {
		t.Fatal("unknown role string wrong")
	}
}

func TestAdvertiseClamps(t *testing.T) {
	f := newFixture(t)
	relay, _ := f.join(t, "relay-1", RoleRelay, geo.Point{})
	relay.Advertise(-3, 99)
	relay.SetAccepting(true)
	ue, _ := f.join(t, "ue-1", RoleUE, geo.Point{X: 1})
	peers := ue.Scan()
	if len(peers) != 1 {
		t.Fatalf("peers = %d, want 1", len(peers))
	}
	if peers[0].FreeCapacity != 0 || peers[0].Intent != MaxGroupOwnerIntent {
		t.Fatalf("clamping failed: %+v", peers[0])
	}
}

// TestQuickIntentMonotonic property-checks that advertised intent never
// increases with load and is always within [0, 15].
func TestQuickIntentMonotonic(t *testing.T) {
	prop := func(a, b uint8, capacity uint8) bool {
		c := int(capacity%20) + 1
		l1, l2 := int(a)%25, int(b)%25
		if l1 > l2 {
			l1, l2 = l2, l1
		}
		i1, i2 := IntentForLoad(l1, c), IntentForLoad(l2, c)
		if i1 < 0 || i1 > MaxGroupOwnerIntent || i2 < 0 || i2 > MaxGroupOwnerIntent {
			return false
		}
		return i1 >= i2
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(15))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickScanRankingSorted property-checks that Scan output is always
// sorted by estimated distance regardless of join order.
func TestQuickScanRankingSorted(t *testing.T) {
	prop := func(coords []uint16) bool {
		s := simtime.NewScheduler(4)
		m, err := NewMedium(s, Config{Profile: radio.WiFiDirectProfile(), Model: energy.DefaultModel()})
		if err != nil {
			return false
		}
		ue, err := m.Join("ue", RoleUE, geo.Static{}, energy.NewLedger())
		if err != nil {
			return false
		}
		for i, c := range coords {
			if i >= 12 {
				break
			}
			x := float64(c%30) + 0.5
			id := hbmsg.DeviceID(rune('a' + i))
			r, err := m.Join(id, RoleRelay, geo.Static{P: geo.Point{X: x}}, energy.NewLedger())
			if err != nil {
				return false
			}
			r.SetAccepting(true)
		}
		peers := ue.Scan()
		for i := 1; i < len(peers); i++ {
			if peers[i].EstDistance < peers[i-1].EstDistance {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(16))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickScanOnlyInRangeAccepting property-checks that Scan returns
// exactly the accepting peers within radio range, regardless of layout.
func TestQuickScanOnlyInRangeAccepting(t *testing.T) {
	prop := func(xs []uint16, acceptMask []bool) bool {
		s := simtime.NewScheduler(6)
		m, err := NewMedium(s, Config{Profile: radio.WiFiDirectProfile(), Model: energy.DefaultModel()})
		if err != nil {
			return false
		}
		ue, err := m.Join("ue", RoleUE, geo.Static{}, energy.NewLedger())
		if err != nil {
			return false
		}
		want := make(map[hbmsg.DeviceID]bool)
		maxRange := m.Profile().MaxRange()
		for i, x := range xs {
			if i >= 10 {
				break
			}
			d := float64(x % 60) // 0..59 m, straddling the ~37 m range
			id := hbmsg.DeviceID(rune('a' + i))
			peer, err := m.Join(id, RoleRelay, geo.Static{P: geo.Point{X: d}}, energy.NewLedger())
			if err != nil {
				return false
			}
			accepting := i < len(acceptMask) && acceptMask[i]
			peer.SetAccepting(accepting)
			if accepting && d <= maxRange {
				want[id] = true
			}
		}
		got := ue.Scan()
		if len(got) != len(want) {
			return false
		}
		for _, p := range got {
			if !want[p.ID] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
