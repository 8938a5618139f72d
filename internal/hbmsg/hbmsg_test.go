package hbmsg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPaperAppParameters(t *testing.T) {
	// Section II-A: "heartbeat messages of QQ, WeChat, and WhatsApp are
	// sent every 300, 270, and 240 seconds. Their sizes are 378, 74 and
	// 66 Bytes."
	tests := []struct {
		p          AppProfile
		wantPeriod time.Duration
		wantSize   int
		wantShare  float64
	}{
		{WeChat(), 270 * time.Second, 74, 0.50},
		{WhatsApp(), 240 * time.Second, 66, 0.619},
		{QQ(), 300 * time.Second, 378, 0.526},
		{Facebook(), 300 * time.Second, 100, 0.484},
	}
	for _, tt := range tests {
		t.Run(tt.p.Name, func(t *testing.T) {
			if tt.p.Period != tt.wantPeriod {
				t.Errorf("period = %v, want %v", tt.p.Period, tt.wantPeriod)
			}
			if tt.p.Size != tt.wantSize {
				t.Errorf("size = %d, want %d", tt.p.Size, tt.wantSize)
			}
			if tt.p.HeartbeatShare != tt.wantShare {
				t.Errorf("share = %v, want %v", tt.p.HeartbeatShare, tt.wantShare)
			}
			if err := tt.p.Validate(); err != nil {
				t.Errorf("Validate: %v", err)
			}
		})
	}
}

func TestAppsOrder(t *testing.T) {
	apps := Apps()
	wantNames := []string{"WeChat", "WhatsApp", "QQ", "Facebook"}
	if len(apps) != len(wantNames) {
		t.Fatalf("Apps() returned %d profiles, want %d", len(apps), len(wantNames))
	}
	for i, name := range wantNames {
		if apps[i].Name != name {
			t.Errorf("Apps()[%d] = %q, want %q", i, apps[i].Name, name)
		}
	}
}

// TestProfileByName covers every name the command-line tools and the
// scenario files accept, in any case.
func TestProfileByName(t *testing.T) {
	for _, tc := range []struct {
		names []string
		want  string
	}{
		{[]string{"standard", "Standard", "std", "STD", ""}, "Standard"},
		{[]string{"wechat", "WeChat"}, "WeChat"},
		{[]string{"whatsapp", "WhatsApp"}, "WhatsApp"},
		{[]string{"qq", "QQ"}, "QQ"},
		{[]string{"facebook", "Facebook"}, "Facebook"},
		{[]string{"diagnostics", "Diagnostics"}, "Diagnostics"},
		{[]string{"adrefresh", "AdRefresh"}, "AdRefresh"},
	} {
		for _, name := range tc.names {
			p, err := ProfileByName(name)
			if err != nil || p.Name != tc.want {
				t.Errorf("ProfileByName(%q) = %q, %v; want %q", name, p.Name, err, tc.want)
			}
		}
	}
	for _, name := range []string{"icq", "we chat", "standard "} {
		if _, err := ProfileByName(name); err == nil {
			t.Errorf("ProfileByName(%q) accepted", name)
		}
	}
}

func TestStandardHeartbeatSize(t *testing.T) {
	// Section V-A uses 54 B as the standard heartbeat size.
	if got := StandardHeartbeat().Size; got != 54 {
		t.Fatalf("standard size = %d, want 54", got)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*AppProfile)
	}{
		{"empty name", func(p *AppProfile) { p.Name = "" }},
		{"zero period", func(p *AppProfile) { p.Period = 0 }},
		{"zero size", func(p *AppProfile) { p.Size = 0 }},
		{"zero expiry factor", func(p *AppProfile) { p.ExpiryFactor = 0 }},
		{"share of 1", func(p *AppProfile) { p.HeartbeatShare = 1 }},
		{"negative share", func(p *AppProfile) { p.HeartbeatShare = -0.1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := WeChat()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Fatal("invalid profile accepted")
			}
		})
	}
}

func TestHeartbeatConstruction(t *testing.T) {
	p := WeChat()
	hb := p.Heartbeat("ue-1", 7, 100*time.Second)
	if hb.App != "WeChat" || hb.Src != "ue-1" || hb.Seq != 7 {
		t.Fatalf("heartbeat fields wrong: %v", hb)
	}
	if hb.Size != 74 {
		t.Fatalf("size = %d, want 74", hb.Size)
	}
	if hb.Expiry != p.Period {
		t.Fatalf("expiry = %v, want period %v (factor 1)", hb.Expiry, p.Period)
	}
	if hb.Deadline() != 100*time.Second+p.Period {
		t.Fatalf("deadline = %v", hb.Deadline())
	}
}

func TestExpired(t *testing.T) {
	hb := Heartbeat{Origin: 10 * time.Second, Expiry: 5 * time.Second}
	if hb.Expired(14 * time.Second) {
		t.Fatal("expired before deadline")
	}
	if hb.Expired(15 * time.Second) {
		t.Fatal("expired exactly at deadline (deadline is inclusive)")
	}
	if !hb.Expired(15*time.Second + 1) {
		t.Fatal("not expired after deadline")
	}
}

func TestExpiryFactorScales(t *testing.T) {
	p := WeChat()
	p.ExpiryFactor = 3 // commercial apps tolerate 3T
	if got, want := p.Expiry(), 3*270*time.Second; got != want {
		t.Fatalf("expiry = %v, want %v", got, want)
	}
}

func TestHeartbeatsPerHour(t *testing.T) {
	if got := WeChat().HeartbeatsPerHour(); math.Abs(got-13.333) > 0.01 {
		t.Fatalf("WeChat heartbeats/hour = %v, want ≈13.33", got)
	}
	var zero AppProfile
	if got := zero.HeartbeatsPerHour(); got != 0 {
		t.Fatalf("zero profile rate = %v, want 0", got)
	}
}

func TestDataMsgsPerHourMatchesShare(t *testing.T) {
	for _, p := range Apps() {
		hb := p.HeartbeatsPerHour()
		data := p.DataMsgsPerHour()
		share := hb / (hb + data)
		if math.Abs(share-p.HeartbeatShare) > 1e-9 {
			t.Errorf("%s: implied share %v, want %v", p.Name, share, p.HeartbeatShare)
		}
	}
}

func TestGenerateTrafficReproducesTable1(t *testing.T) {
	// Table I: heartbeat share per app. A week of traffic should land
	// within a few points of the table.
	rng := rand.New(rand.NewSource(17))
	for _, p := range Apps() {
		c, err := p.GenerateTraffic(7*24*time.Hour, rng)
		if err != nil {
			t.Fatalf("%s: GenerateTraffic: %v", p.Name, err)
		}
		if got := p.ExpectedShareError(c); got > 0.03 {
			t.Errorf("%s: share %v vs table %v (err %.3f)",
				p.Name, c.HeartbeatShare(), p.HeartbeatShare, got)
		}
	}
}

func TestGenerateTrafficValidation(t *testing.T) {
	p := WeChat()
	rng := rand.New(rand.NewSource(1))
	if _, err := p.GenerateTraffic(0, rng); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := p.GenerateTraffic(time.Hour, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	bad := p
	bad.Period = 0
	if _, err := bad.GenerateTraffic(time.Hour, rng); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestGenerateTrafficDeterministic(t *testing.T) {
	p := QQ()
	a, err := p.GenerateTraffic(24*time.Hour, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("GenerateTraffic: %v", err)
	}
	b, err := p.GenerateTraffic(24*time.Hour, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("GenerateTraffic: %v", err)
	}
	if a != b {
		t.Fatalf("same seed produced %+v vs %+v", a, b)
	}
}

func TestTrafficCountsShare(t *testing.T) {
	c := TrafficCounts{Heartbeats: 3, DataMsgs: 1}
	if got := c.HeartbeatShare(); got != 0.75 {
		t.Fatalf("share = %v, want 0.75", got)
	}
	var empty TrafficCounts
	if got := empty.HeartbeatShare(); got != 0 {
		t.Fatalf("empty share = %v, want 0", got)
	}
}

// TestQuickDeadlineConsistency property-checks Deadline/Expired coherence.
func TestQuickDeadlineConsistency(t *testing.T) {
	prop := func(originMs, expiryMs uint32, probeMs uint32) bool {
		hb := Heartbeat{
			Origin: time.Duration(originMs) * time.Millisecond,
			Expiry: time.Duration(expiryMs) * time.Millisecond,
		}
		probe := time.Duration(probeMs) * time.Millisecond
		if hb.Expired(probe) != (probe > hb.Deadline()) {
			return false
		}
		return hb.Deadline() == hb.Origin+hb.Expiry
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(10))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTrafficShareConverges property-checks that over long horizons the
// generated share lands near the profile share for arbitrary valid shares.
func TestQuickTrafficShareConverges(t *testing.T) {
	prop := func(sharePct uint8, seed int64) bool {
		share := 0.2 + float64(sharePct%60)/100 // 0.20 .. 0.79
		p := AppProfile{
			Name: "prop", Period: 100 * time.Second, Size: 54,
			ExpiryFactor: 1, HeartbeatShare: share, DataMsgSize: 500,
		}
		c, err := p.GenerateTraffic(14*24*time.Hour, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		return p.ExpectedShareError(c) < 0.05
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
