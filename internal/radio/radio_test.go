package radio

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestProfilesValid(t *testing.T) {
	for _, p := range []Profile{WiFiDirectProfile(), BluetoothProfile()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%v profile invalid: %v", p.Technique, err)
		}
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"zero path loss exponent", func(p *Profile) { p.PathLossExponent = 0 }},
		{"zero bitrate", func(p *Profile) { p.BitrateMbps = 0 }},
		{"sensitivity above tx budget", func(p *Profile) { p.SensitivityDBm = 0 }},
		{"edge loss start out of range", func(p *Profile) { p.EdgeLossStart = 1.5 }},
		{"max edge loss out of range", func(p *Profile) { p.MaxEdgeLoss = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := WiFiDirectProfile()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Fatal("invalid profile accepted")
			}
		})
	}
}

func TestProfileFor(t *testing.T) {
	p, err := ProfileFor(WiFiDirect)
	if err != nil || p.Technique != WiFiDirect {
		t.Fatalf("ProfileFor(WiFiDirect) = %v, %v", p.Technique, err)
	}
	p, err = ProfileFor(Bluetooth)
	if err != nil || p.Technique != Bluetooth {
		t.Fatalf("ProfileFor(Bluetooth) = %v, %v", p.Technique, err)
	}
	if _, err := ProfileFor(Technique(99)); err == nil {
		t.Fatal("unknown technique accepted")
	}
}

func TestTechniqueString(t *testing.T) {
	if WiFiDirect.String() != "wifi-direct" || Bluetooth.String() != "bluetooth" {
		t.Fatal("technique strings wrong")
	}
	if got := Technique(42).String(); got != "technique(42)" {
		t.Fatalf("unknown technique string = %q", got)
	}
}

func TestRSSIDecreasesWithDistance(t *testing.T) {
	p := WiFiDirectProfile()
	prev := math.Inf(1)
	for _, d := range []float64{0.5, 1, 2, 5, 10, 20, 30} {
		rssi := p.MeanRSSI(d)
		if rssi >= prev {
			t.Fatalf("RSSI not decreasing: %v dBm at %v m (prev %v)", rssi, d, prev)
		}
		prev = rssi
	}
}

func TestRSSIFloorsTinyDistance(t *testing.T) {
	p := WiFiDirectProfile()
	if got, want := p.MeanRSSI(0), p.MeanRSSI(0.05); got != want {
		t.Fatalf("RSSI at 0 = %v, want same as floor %v", got, want)
	}
	if math.IsInf(p.MeanRSSI(0), 0) {
		t.Fatal("RSSI infinite at zero distance")
	}
}

func TestWiFiDirectOutrangesBluetooth(t *testing.T) {
	// Section IV-A: Bluetooth's range (< 10 m) is "too limited"; Wi-Fi
	// Direct's is substantially longer and must cover the paper's 15 m
	// distance sweep (Fig. 12).
	wifi, bt := WiFiDirectProfile().MaxRange(), BluetoothProfile().MaxRange()
	if wifi <= bt {
		t.Fatalf("wifi range %v m <= bluetooth %v m", wifi, bt)
	}
	if bt > 12 {
		t.Fatalf("bluetooth range %v m, want ≈10 m", bt)
	}
	if wifi < 16 || wifi > 60 {
		t.Fatalf("wifi-direct range %v m, want within [16, 60]", wifi)
	}
}

func TestInRange(t *testing.T) {
	p := BluetoothProfile()
	r := p.MaxRange()
	if !p.InRange(r * 0.9) {
		t.Fatal("90% of range reported out of range")
	}
	if p.InRange(r * 1.1) {
		t.Fatal("110% of range reported in range")
	}
}

func TestEstimateDistanceInvertsMeanRSSI(t *testing.T) {
	p := WiFiDirectProfile()
	for _, d := range []float64{0.5, 1, 3, 10, 25} {
		want := d
		if want < 0.1 {
			want = 0.1
		}
		got := p.EstimateDistance(p.MeanRSSI(d))
		if math.Abs(got-want)/want > 1e-9 {
			t.Fatalf("EstimateDistance(MeanRSSI(%v)) = %v", d, got)
		}
	}
}

func TestMeasureRSSIShadowingDeterministic(t *testing.T) {
	p := WiFiDirectProfile()
	a := p.MeasureRSSI(5, rand.New(rand.NewSource(9)))
	b := p.MeasureRSSI(5, rand.New(rand.NewSource(9)))
	if a != b {
		t.Fatalf("same seed measurements differ: %v vs %v", a, b)
	}
	if a == p.MeanRSSI(5) {
		t.Fatal("shadowing had no effect")
	}
	c := p.MeasureRSSI(5, nil)
	if c != p.MeanRSSI(5) {
		t.Fatalf("nil rng measurement %v, want mean %v", c, p.MeanRSSI(5))
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	p := WiFiDirectProfile()
	small := p.TransferTime(54)
	big := p.TransferTime(54 * 1000)
	if big <= small {
		t.Fatalf("transfer time not increasing: %v vs %v", small, big)
	}
	if small < p.PerLinkOverhead {
		t.Fatalf("transfer time %v below fixed overhead %v", small, p.PerLinkOverhead)
	}
	if got := p.TransferTime(-5); got != p.TransferTime(0) {
		t.Fatalf("negative size not clamped: %v", got)
	}
}

func TestBluetoothSlowerThanWiFiDirect(t *testing.T) {
	const size = 10_000
	if BluetoothProfile().TransferTime(size) <= WiFiDirectProfile().TransferTime(size) {
		t.Fatal("bluetooth transfer not slower than wifi-direct")
	}
}

func TestLossProbabilityShape(t *testing.T) {
	p := WiFiDirectProfile()
	r := p.MaxRange()
	if got := p.LossProbability(0.3 * r); got != 0 {
		t.Fatalf("loss in reliable core = %v, want 0", got)
	}
	mid := p.LossProbability(0.8 * r)
	if mid <= 0 || mid >= p.MaxEdgeLoss {
		t.Fatalf("edge-zone loss = %v, want in (0, %v)", mid, p.MaxEdgeLoss)
	}
	if got := p.LossProbability(r * 1.01); got != 1 {
		t.Fatalf("beyond-range loss = %v, want 1", got)
	}
}

func TestTransferOK(t *testing.T) {
	p := WiFiDirectProfile()
	rng := rand.New(rand.NewSource(11))
	if !p.TransferOK(1, rng) {
		t.Fatal("transfer at 1 m failed")
	}
	if p.TransferOK(p.MaxRange()*2, rng) {
		t.Fatal("transfer beyond range succeeded")
	}
	// In the edge zone, the empirical failure rate should approximate the
	// model probability.
	d := 0.9 * p.MaxRange()
	want := p.LossProbability(d)
	fails := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if !p.TransferOK(d, rng) {
			fails++
		}
	}
	got := float64(fails) / trials
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("empirical loss %v, model %v", got, want)
	}
}

func TestTransferOKNilRngFailsClosed(t *testing.T) {
	p := WiFiDirectProfile()
	d := 0.9 * p.MaxRange() // loss in (0,1)
	if p.TransferOK(d, nil) {
		t.Fatal("nil rng in lossy zone succeeded, want fail-closed")
	}
}

// TestQuickEstimateDistanceRoundTrip property-checks RSSI→distance→RSSI
// consistency across the usable range.
func TestQuickEstimateDistanceRoundTrip(t *testing.T) {
	p := WiFiDirectProfile()
	prop := func(milli uint16) bool {
		d := 0.1 + float64(milli)/1000*30 // 0.1 .. 30.1 m
		rssi := p.MeanRSSI(d)
		back := p.EstimateDistance(rssi)
		return math.Abs(back-d)/d < 1e-9
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLossMonotonic property-checks that loss probability never
// decreases with distance.
func TestQuickLossMonotonic(t *testing.T) {
	p := WiFiDirectProfile()
	prop := func(a, b uint16) bool {
		d1 := float64(a) / 1000 * 50
		d2 := float64(b) / 1000 * 50
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return p.LossProbability(d1) <= p.LossProbability(d2)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTransferTimeReference(t *testing.T) {
	// 54 bytes at 25 Mbps is ~17 µs of airtime; the fixed overhead
	// dominates. Sanity-check magnitude.
	p := WiFiDirectProfile()
	got := p.TransferTime(54)
	if got < 8*time.Millisecond || got > 9*time.Millisecond {
		t.Fatalf("TransferTime(54) = %v, want ≈8 ms", got)
	}
}

func TestLTEDirectProfile(t *testing.T) {
	p := LTEDirectProfile()
	if err := p.Validate(); err != nil {
		t.Fatalf("profile invalid: %v", err)
	}
	// Section II-C: discovery "in proximity of approximately 500 meters".
	r := p.MaxRange()
	if r < 300 || r > 700 {
		t.Fatalf("LTE Direct range = %.0f m, want ≈500 m", r)
	}
	if r <= WiFiDirectProfile().MaxRange() {
		t.Fatal("LTE Direct range not beyond Wi-Fi Direct")
	}
	got, err := ProfileFor(LTEDirect)
	if err != nil || got.Technique != LTEDirect {
		t.Fatalf("ProfileFor(LTEDirect) = %v, %v", got.Technique, err)
	}
	if LTEDirect.String() != "lte-direct" {
		t.Fatalf("string = %q", LTEDirect.String())
	}
}

// TestRangedMatchesProfile pins the cached range to the computed one: at
// MaxRange itself and at the floats on either side of it, and across the
// loss curve, a Ranged answers exactly as its Profile does — so an owner
// that switches to the cached form cannot move a range edge or a loss draw.
func TestRangedMatchesProfile(t *testing.T) {
	for _, p := range []Profile{WiFiDirectProfile(), BluetoothProfile(), LTEDirectProfile()} {
		r := p.Ranged()
		limit := p.MaxRange()
		if r.MaxRange() != limit {
			t.Fatalf("%v: cached range %v, computed %v", p.Technique, r.MaxRange(), limit)
		}
		edge := []float64{math.Nextafter(limit, 0), limit, math.Nextafter(limit, math.Inf(1))}
		for i, d := range edge {
			if got, want := r.InRange(d), p.InRange(d); got != want || want != (i < 2) {
				t.Errorf("%v: InRange(%v) cached %v, computed %v, want %v", p.Technique, d, got, want, i < 2)
			}
		}
		for _, d := range append(edge, 0, 0.1, 0.59*limit, 0.6*limit, 0.61*limit, 0.9*limit, 2*limit) {
			if got, want := r.LossProbability(d), p.LossProbability(d); got != want {
				t.Errorf("%v: LossProbability(%v) cached %v, computed %v", p.Technique, d, got, want)
			}
			a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
			for k := 0; k < 20; k++ {
				if r.TransferOK(d, a) != p.TransferOK(d, b) {
					t.Fatalf("%v: TransferOK(%v) draw %d differs between cached and computed", p.Technique, d, k)
				}
			}
			if a.Int63() != b.Int63() {
				t.Errorf("%v: TransferOK(%v) consumed a different number of draws", p.Technique, d)
			}
		}
	}
}
