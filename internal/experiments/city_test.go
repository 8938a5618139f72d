package experiments

import (
	"testing"
	"time"
)

// smallCity shrinks the preset so unit tests stay fast while exercising
// every mobility class and both device roles.
func smallCity() CityConfig {
	cfg := CityShort()
	cfg.Devices = 400
	cfg.Side = 200
	cfg.Duration = stdProfile().Period + 30*time.Second
	return cfg
}

func TestCityScenarioRuns(t *testing.T) {
	rep, stats, err := RunCity(smallCity())
	if err != nil {
		t.Fatalf("RunCity: %v", err)
	}
	if stats.Devices != 400 || stats.Relays != 40 || stats.UEs != 360 {
		t.Fatalf("population split %d/%d/%d, want 400/40/360",
			stats.Devices, stats.Relays, stats.UEs)
	}
	if len(rep.Devices) != stats.Devices {
		t.Fatalf("report covers %d devices, want %d", len(rep.Devices), stats.Devices)
	}
	if stats.Events == 0 {
		t.Fatal("no kernel events fired")
	}
	// Most UEs heartbeat at least once within a period-plus-grace horizon
	// (a few start so late their first batch is still in flight at the
	// cut-off), so the city must deliver a substantial message volume.
	if stats.Deliveries < stats.UEs/2 {
		t.Fatalf("only %d deliveries for %d UEs", stats.Deliveries, stats.UEs)
	}
	if stats.L3Messages <= 0 {
		t.Fatal("no layer-3 messages recorded")
	}
}

// TestCityD2DSavesSignaling checks the paper's core claim at city scale:
// the same crowd with D2D forwarding produces less layer-3 signaling than
// every device holding its own cellular connection.
func TestCityD2DSavesSignaling(t *testing.T) {
	cfg := smallCity()
	_, with, err := RunCity(cfg)
	if err != nil {
		t.Fatalf("RunCity: %v", err)
	}
	cfg.DisableD2D = true
	_, base, err := RunCity(cfg)
	if err != nil {
		t.Fatalf("RunCity original: %v", err)
	}
	if with.L3Messages >= base.L3Messages {
		t.Fatalf("D2D city produced %d L3 messages, original system %d — no signaling saving",
			with.L3Messages, base.L3Messages)
	}
	t.Logf("L3 signaling: %d with D2D vs %d original (%.0f%% saved)",
		with.L3Messages, base.L3Messages,
		100*(1-float64(with.L3Messages)/float64(base.L3Messages)))
}

func TestCityScenarioDeterministic(t *testing.T) {
	run := func() string {
		rep, _, err := RunCity(smallCity())
		if err != nil {
			t.Fatalf("RunCity: %v", err)
		}
		return rep.Digest()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("repeat city runs diverged: %s vs %s", a, b)
	}
}

func TestCityConfigValidation(t *testing.T) {
	bad := []func(*CityConfig){
		func(c *CityConfig) { c.Devices = 0 },
		func(c *CityConfig) { c.RelayFraction = 0 },
		func(c *CityConfig) { c.RelayFraction = 1 },
		func(c *CityConfig) { c.Side = -1 },
		func(c *CityConfig) { c.Duration = 0 },
		func(c *CityConfig) { c.Capacity = 0 },
	}
	for i, mutate := range bad {
		cfg := CityShort()
		mutate(&cfg)
		if _, err := CityScenario(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// seqGoldens pins the sequential kernel's report digests: one city_seq
// repetition at seeds 1 and 7, and the CI preset. TestCityAllocs checks
// the first, which it runs anyway.
var seqGoldens = []struct {
	name   string
	cfg    func() CityConfig
	digest string
}{
	{"city_seq seed 1", citySeqRep, "a29f599f539ca6a9f28baf69bbbfb90750e04fa849e556cf43bb8b10ebaf1e66"},
	{"city_seq seed 7", func() CityConfig {
		cfg := citySeqRep()
		cfg.Seed = 7
		return cfg
	}, "8b06c552cb9bb94acf39eae8d1e40cfdf908589001b294d403d233991731b720"},
	{"CityShort", CityShort, "de9939d8f09e8cb033214b1da4a39fc6189029e49ed8660e721f06249e41fa69"},
}

// TestCitySeqGolden holds the sequential kernel to its pinned digests, the
// ones TestCityAllocs does not run.
func TestCitySeqGolden(t *testing.T) {
	for _, g := range seqGoldens[1:] {
		rep, _, err := RunCity(g.cfg())
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := rep.Digest(); got != g.digest {
			t.Errorf("%s report digest %s, want %s", g.name, got, g.digest)
		}
	}
}
