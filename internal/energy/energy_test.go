package energy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultModelValid(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatalf("DefaultModel invalid: %v", err)
	}
}

func TestValidateCatchesBadConstants(t *testing.T) {
	m := DefaultModel()
	m.CellularTxBase = 0
	if err := m.Validate(); err == nil {
		t.Fatal("zero CellularTxBase accepted")
	}
	m = DefaultModel()
	m.D2DDistanceSlope = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative distance slope accepted")
	}
	m = DefaultModel()
	m.TraceSampleEvery = 0
	if err := m.Validate(); err == nil {
		t.Fatal("zero sampling period accepted")
	}
}

func TestTable3Constants(t *testing.T) {
	// The default model must carry the paper's Table III values verbatim.
	m := DefaultModel()
	tests := []struct {
		name string
		got  MicroAmpHours
		want float64
	}{
		{"UE discovery", m.UEDiscovery, 132.24},
		{"UE connection", m.UEConnection, 63.74},
		{"UE forwarding", m.UED2DSend, 73.09},
		{"relay discovery", m.RelayDiscovery, 122.50},
		{"relay connection", m.RelayConnection, 60.29},
	}
	for _, tt := range tests {
		if math.Abs(float64(tt.got)-tt.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", tt.name, tt.got, tt.want)
		}
	}
}

func TestFirstPeriodUESavingIs55Percent(t *testing.T) {
	// Section V-A: the UE's first-period D2D total (discovery + connection
	// + one forward) is a ~55 % saving versus one cellular transmission.
	m := DefaultModel()
	d2dTotal := m.UEDiscovery + m.UEConnection + m.D2DSendCharge(ReferenceMessageSize, 1)
	cell := m.CellularTxCharge(1, ReferenceMessageSize)
	saving := 1 - float64(d2dTotal/cell)
	if saving < 0.50 || saving > 0.60 {
		t.Fatalf("first-period UE saving = %.1f%%, want ≈55%%", saving*100)
	}
}

func TestD2DSendChargeDistanceMonotonic(t *testing.T) {
	m := DefaultModel()
	// Flat at or below the 1 m reference distance of the measurements.
	if got, want := m.D2DSendCharge(ReferenceMessageSize, 1), m.UED2DSend; got != want {
		t.Fatalf("charge at 1 m = %v, want Table III value %v", got, want)
	}
	prev := m.D2DSendCharge(ReferenceMessageSize, 1)
	for _, d := range []float64{5, 10, 15} {
		c := m.D2DSendCharge(ReferenceMessageSize, d)
		if c <= prev {
			t.Fatalf("charge not increasing with distance: %v at %vm <= %v", c, d, prev)
		}
		prev = c
	}
}

func TestD2DSendChargeNegativeDistanceClamped(t *testing.T) {
	m := DefaultModel()
	if got, want := m.D2DSendCharge(ReferenceMessageSize, -5), m.D2DSendCharge(ReferenceMessageSize, 0); got != want {
		t.Fatalf("negative distance charge %v, want clamped %v", got, want)
	}
}

func TestD2DRecvChargeFirstVsSteady(t *testing.T) {
	m := DefaultModel()
	first := m.D2DRecvCharge(ReferenceMessageSize, 1, true)
	steady := m.D2DRecvCharge(ReferenceMessageSize, 1, false)
	if first <= steady {
		t.Fatalf("first-round recv %v should exceed steady %v", first, steady)
	}
	if math.Abs(float64(first)-123.22*m.distanceFactor(1)) > 1e-9 {
		t.Fatalf("first-round recv = %v, want Table IV 123.22×distance factor", first)
	}
}

func TestCellularTxChargeAggregationAmortizes(t *testing.T) {
	m := DefaultModel()
	one := m.CellularTxCharge(1, ReferenceMessageSize)
	two := m.CellularTxCharge(2, 2*ReferenceMessageSize)
	separate := 2 * one
	if two >= separate {
		t.Fatalf("aggregated 2-msg charge %v not cheaper than separate %v", two, separate)
	}
	// The marginal cost of aggregation must be small relative to a full
	// transmission ("slightly higher than original", Section V-A).
	marginal := two - one
	if marginal <= 0 || float64(marginal/one) > 0.10 {
		t.Fatalf("marginal aggregation charge %v out of expected range", marginal)
	}
}

func TestCellularTxChargeZeroMessages(t *testing.T) {
	m := DefaultModel()
	if got := m.CellularTxCharge(0, 0); got != 0 {
		t.Fatalf("zero messages charge = %v, want 0", got)
	}
}

func TestCellularTxChargeSizeEffectMinor(t *testing.T) {
	// Fig. 13: energy stays almost constant across 1×..5× message sizes.
	m := DefaultModel()
	small := m.CellularTxCharge(1, ReferenceMessageSize)
	big := m.CellularTxCharge(1, 5*ReferenceMessageSize)
	growth := float64(big-small) / float64(small)
	if growth < 0 || growth > 0.05 {
		t.Fatalf("5× size grew cellular charge by %.1f%%, want <5%%", growth*100)
	}
}

// TestLedgerTable pins the ledger's accounting rules on the array form:
// what a phase's total, event count and visibility are after a sequence of
// charges, optionally followed by merging a second ledger in.
func TestLedgerTable(t *testing.T) {
	type add struct {
		p Phase
		c MicroAmpHours
	}
	// Summed at run time: 0.1+0.2+0.3 and 0.3+0.2+0.1 round differently.
	x, y, z := MicroAmpHours(0.1), MicroAmpHours(0.2), MicroAmpHours(0.3)
	if x+y+z == z+y+x {
		t.Fatal("the order-dependence case has lost its teeth")
	}
	cases := []struct {
		name       string
		adds       []add
		wantTotal  MicroAmpHours
		wantEvents map[Phase]int // phases absent here must be invisible
		wantString string
	}{
		{name: "empty", wantString: ""},
		{
			name:       "accumulates per phase",
			adds:       []add{{PhaseDiscovery, 10}, {PhaseCellular, 100}, {PhaseDiscovery, 5}},
			wantTotal:  115,
			wantEvents: map[Phase]int{PhaseDiscovery: 2, PhaseCellular: 1},
			wantString: "discovery=15.00 cellular=100.00",
		},
		{
			name:       "a phase charged only zero stays visible",
			adds:       []add{{PhaseFallback, 0}, {PhaseD2DSend, 7}},
			wantTotal:  7,
			wantEvents: map[Phase]int{PhaseD2DSend: 1, PhaseFallback: 1},
			wantString: "d2d-send=7.00 fallback=0.00",
		},
		{
			name:       "negative charge clamps to zero and still counts",
			adds:       []add{{PhaseCellular, -50}},
			wantTotal:  0,
			wantEvents: map[Phase]int{PhaseCellular: 1},
			wantString: "cellular=0.00",
		},
		{
			// Total sums in phase order whatever order the charges arrived in.
			name:       "total is independent of insertion order",
			adds:       []add{{PhaseIdleBase, z}, {PhaseCellular, y}, {PhaseDiscovery, x}},
			wantTotal:  x + y + z,
			wantEvents: map[Phase]int{PhaseDiscovery: 1, PhaseCellular: 1, PhaseIdleBase: 1},
			wantString: "discovery=0.10 cellular=0.20 idle-base=0.30",
		},
	}
	build := func(adds []add, reversed bool) *Ledger {
		l := NewLedger()
		for i := range adds {
			a := adds[i]
			if reversed {
				a = adds[len(adds)-1-i]
			}
			l.Add(a.p, a.c)
		}
		return l
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, reversed := range []bool{false, true} {
				l := build(tc.adds, reversed)
				if got := l.Total(); got != tc.wantTotal {
					t.Errorf("reversed=%v: Total = %v, want %v", reversed, float64(got), float64(tc.wantTotal))
				}
				if got := l.String(); got != tc.wantString {
					t.Errorf("reversed=%v: String = %q, want %q", reversed, got, tc.wantString)
				}
				totals, charged := l.Snapshot()
				for _, p := range Phases() {
					n, visible := tc.wantEvents[p]
					if got := l.Events(p); got != n {
						t.Errorf("reversed=%v: Events(%v) = %d, want %d", reversed, p, got, n)
					}
					if charged.Has(p) != visible {
						t.Errorf("reversed=%v: Snapshot lists %v = %v, want %v", reversed, p, charged.Has(p), visible)
					}
					if totals[p] != l.Phase(p) {
						t.Errorf("reversed=%v: Snapshot[%v] = %v, Phase = %v", reversed, p, totals[p], l.Phase(p))
					}
				}
				// The snapshot is a copy: writing to it leaves the ledger alone.
				totals[PhaseD2DSend] = 999
				if got := l.Total(); got != tc.wantTotal {
					t.Errorf("mutating the snapshot moved Total to %v", float64(got))
				}
			}
		})
	}
}

func TestLedgerRejectsUndeclaredPhase(t *testing.T) {
	for _, p := range []Phase{0, -1, PhaseIdleBase + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) did not panic", p)
				}
			}()
			NewLedger().Add(p, 1)
		}()
		if (PhaseSet(0xff)).Has(p) {
			t.Errorf("PhaseSet.Has(%v) = true for an undeclared phase", p)
		}
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseDiscovery.String() != "discovery" {
		t.Fatalf("PhaseDiscovery.String() = %q", PhaseDiscovery.String())
	}
	if got := Phase(99).String(); got != "phase(99)" {
		t.Fatalf("unknown phase string = %q", got)
	}
}

// TestQuickCellularAggregationNeverWorse property-checks that aggregating n
// messages into one transmission never costs more than n separate
// transmissions — the core premise of the relaying framework.
func TestQuickCellularAggregationNeverWorse(t *testing.T) {
	m := DefaultModel()
	prop := func(n uint8, extraBytes uint16) bool {
		msgs := int(n%20) + 1
		payload := msgs*ReferenceMessageSize + int(extraBytes)
		agg := m.CellularTxCharge(msgs, payload)
		sep := MicroAmpHours(0)
		perMsg := payload / msgs
		for i := 0; i < msgs; i++ {
			sep += m.CellularTxCharge(1, perMsg)
		}
		return agg <= sep+1e-9
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLedgerTotalIsSumOfPhases property-checks the ledger accounting
// identity under arbitrary add sequences.
func TestQuickLedgerTotalIsSumOfPhases(t *testing.T) {
	prop := func(adds []uint16) bool {
		l := NewLedger()
		var want float64
		phases := Phases()
		for i, a := range adds {
			p := phases[i%len(phases)]
			l.Add(p, MicroAmpHours(a))
			want += float64(a)
		}
		return math.Abs(float64(l.Total())-want) < 1e-6
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBattery(t *testing.T) {
	b := GalaxyS4Battery()
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if b.CapacityMAh != 2600 {
		t.Fatalf("capacity = %v, want 2600", b.CapacityMAh)
	}
	// 260 mAh = 260000 µAh is 10% of a 2600 mAh battery.
	if got := b.DrainFraction(260000); math.Abs(got-0.10) > 1e-12 {
		t.Fatalf("drain = %v, want 0.10", got)
	}
	var zero Battery
	if err := zero.Validate(); err == nil {
		t.Fatal("zero battery accepted")
	}
	if got := zero.DrainFraction(100); got != 0 {
		t.Fatalf("zero-capacity drain = %v, want 0", got)
	}
}
