package experiments

import (
	"runtime"
	"testing"
	"time"

	"d2dhb/internal/core"
)

// liveHeap returns the bytes reachable after two collections: the second
// one frees what finalizers and sync.Pool victim caches kept past the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCityFootprint pins the simulator's memory per device: what a built
// city keeps live, and what a finished run's report retains once the
// simulation is dropped. The ceilings sit between this representation
// (≈ 1 500 and ≈ 300 B/device) and the one it replaced (3 010 and 490: a
// resident 4.9 KB math/rand source per walker, a map per ledger and per
// device report), so a resident RNG or a per-device map coming back fails
// here rather than at the 1M-device smoke.
func TestCityFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the simulator's footprint")
	}
	const (
		devices       = 2_000
		builtCeiling  = 2_000 // live bytes per device after CityScenario
		reportCeiling = 360   // retained bytes per device of the *core.Report alone
	)
	cfg := CityConfig{
		Seed: 1, Devices: devices, RelayFraction: 0.10, Side: 450,
		Duration: 10 * time.Minute, Capacity: 16,
	}
	perDevice := func(after, before uint64) int {
		return (int(after) - int(before)) / devices
	}

	base := liveHeap()
	sim, err := CityScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	built := perDevice(liveHeap(), base)
	t.Logf("built city: %d B/device live", built)
	if built > builtCeiling {
		t.Errorf("built city keeps %d B/device live, ceiling %d", built, builtCeiling)
	}

	var rep *core.Report
	if rep, err = sim.Run(); err != nil {
		t.Fatal(err)
	}
	sim = nil // the report must not keep the simulation reachable
	retained := perDevice(liveHeap(), base)
	t.Logf("retained report: %d B/device", retained)
	if retained > reportCeiling {
		t.Errorf("report retains %d B/device, ceiling %d", retained, reportCeiling)
	}
	if len(rep.Devices) != devices {
		t.Fatalf("report has %d devices, want %d", len(rep.Devices), devices)
	}
}

// BenchmarkCityBuildAndRun is one repetition of the city_seq bench
// workload — 10k devices, 20 simulated minutes, build plus run — for
// -benchmem: bytes/op and allocs/op are the garbage a repetition makes on
// top of what TestCityFootprint pins as live.
func BenchmarkCityBuildAndRun(b *testing.B) {
	cfg := CityConfig{
		Seed: 1, Devices: 10_000, RelayFraction: 0.10, Side: 1000,
		Duration: 20 * time.Minute, Capacity: 16,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunCity(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
