package experiments

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"d2dhb/internal/core"
	"d2dhb/internal/device"
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
// simulation is dropped. The built ceiling sits just above this
// representation (≈ 1 360 B/device; 1 448 while every UE held its own copy
// of the run's settings), far below the one with a resident 4.9 KB
// math/rand source per walker and a map per ledger (3 010); the report's
// sits between ≈ 300 B/device and the 490 of a map per device report. A
// resident RNG or a per-device map coming back fails here rather than at
// the 1M-device smoke. A device.UE is held to ueCeiling: it was 504 B
// while it held its UEConfig by value, and item 11 of the ROADMAP needs
// it near the live UEClient's 320 B.
func TestCityFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the simulator's footprint")
	}
	const (
		devices       = 2_000
		builtCeiling  = 1_400 // live bytes per device after CityScenario
		reportCeiling = 360   // retained bytes per device of the *core.Report alone
		ueCeiling     = 424   // unsafe.Sizeof(device.UE{})
	)
	if size := unsafe.Sizeof(device.UE{}); size > ueCeiling {
		t.Errorf("device.UE is %d B, ceiling %d", size, ueCeiling)
	}
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
	// The state machines' own structs are what each device's share starts
	// from: the sizes beside it say which one a new field would push over.
	t.Logf("built city: %d B/device live (device.UE %d B, device.Relay %d B)",
		built, unsafe.Sizeof(device.UE{}), unsafe.Sizeof(device.Relay{}))
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

// citySeqRep is one repetition of the city_seq bench workload: 10k devices
// for 20 simulated minutes on the sequential kernel.
func citySeqRep() CityConfig {
	return CityConfig{
		Seed: 1, Devices: 10_000, RelayFraction: 0.10, Side: 1000,
		Duration: 20 * time.Minute, Capacity: 16,
	}
}

// TestCityAllocs pins what one city_seq repetition allocates: the build,
// the run and the report's digest, as the bench times them. The bench
// keeps every repetition's report, so its peak RSS is retained reports
// plus one repetition's allocations: each byte a repetition allocates and
// does not keep is a byte of peak RSS. The ceilings sit just above this
// kernel (≈ 21.8 MB in ≈ 230 k mallocs; 22.7 MB while every UE held its
// own copy of the run's settings, 23.2 MB while the event queue grew by
// append to its high-water mark) and below the one that returned
// every Scan's result in a fresh slice, kept a link map per node, drew the
// whole roster before building it, grew its ID tables and rendered the
// digest through fmt (≈ 41 MB in ≈ 505 k mallocs).
func TestCityAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the kernel's")
	}
	const (
		bytesCeiling   = 22 << 20
		mallocsCeiling = 250_000
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sim, err := CityScenario(citySeqRep())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	digest := rep.Digest()
	runtime.ReadMemStats(&after)
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("one city_seq repetition: %.1f MB in %d mallocs (digest %.8s)", float64(bytes)/1e6, mallocs, digest)
	if want := seqGoldens[0].digest; digest != want {
		t.Errorf("city_seq seed 1 report digest %s, want %s", digest, want)
	}
	if bytes > bytesCeiling {
		t.Errorf("one city_seq repetition allocates %d bytes, ceiling %d", bytes, bytesCeiling)
	}
	if mallocs > mallocsCeiling {
		t.Errorf("one city_seq repetition makes %d mallocs, ceiling %d", mallocs, mallocsCeiling)
	}
}

// BenchmarkCityBuildAndRun is one repetition of the city_seq bench
// workload — 10k devices, 20 simulated minutes, build plus run — for
// -benchmem: bytes/op and allocs/op are the garbage a repetition makes on
// top of what TestCityFootprint pins as live.
func BenchmarkCityBuildAndRun(b *testing.B) {
	cfg := citySeqRep()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunCity(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// cityParRep is one repetition of the city_par bench workload: 10k devices
// on 16 tiles for 40 simulated minutes, build plus run.
func cityParRep() ParallelCityConfig {
	return ParallelCityConfig{CityConfig: CityConfig{
		Seed: 1, Devices: 10_000, RelayFraction: 0.10, Side: 1000,
		Duration: 40 * time.Minute, Capacity: 16,
	}, Tiles: 16}
}

// TestCityParallelAllocs pins what one city_par repetition allocates. The
// bench keeps every repetition's report, so its peak RSS is retained reports
// plus one repetition's garbage: a faster kernel fits more repetitions into
// a run and has to pay for each with fewer bytes. The ceilings sit just
// above this kernel (≈ 28.6 MB in ≈ 312 k mallocs) and below the one that
// kept a map per UE for its one or two unacknowledged forwards, bound a
// method value at every relay and RRC timer arm and copied the barrier's
// ops and deliveries into sort buffers (33.4 MB in 425 k mallocs).
func TestCityParallelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the kernel's")
	}
	const (
		bytesCeiling   = 31 << 20
		mallocsCeiling = 340_000
	)
	cfg := cityParRep()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, _, err := RunCityParallel(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("one RunCityParallel: %.1f MB in %d mallocs", float64(bytes)/(1<<20), mallocs)
	if bytes > bytesCeiling {
		t.Errorf("one RunCityParallel allocates %d bytes, ceiling %d", bytes, bytesCeiling)
	}
	if mallocs > mallocsCeiling {
		t.Errorf("one RunCityParallel makes %d mallocs, ceiling %d", mallocs, mallocsCeiling)
	}
}

// TestCityParallelReportFootprint pins what a finished tile-kernel run's
// report retains: a device's own record plus its share of the UE counter
// records, which devices with equal counters share (≈ 220 B/device; ≈ 300
// with one counter record per UE). The bench keeps every repetition's
// report, so these bytes are paid once per repetition of a run.
func TestCityParallelReportFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the report's footprint")
	}
	const reportCeiling = 250 // retained bytes per device of the *core.Report alone
	cfg := cityParRep()
	base := liveHeap()
	rep, _, err := RunCityParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	retained := (int(liveHeap()) - int(base)) / cfg.Devices
	t.Logf("retained report: %d B/device", retained)
	if retained > reportCeiling {
		t.Errorf("report retains %d B/device, ceiling %d", retained, reportCeiling)
	}
	shared := make(map[*device.UEStats]bool)
	for _, d := range rep.Devices {
		if d.UE != nil {
			shared[d.UE] = true
		}
	}
	if len(shared) == 0 || len(shared) > cfg.Devices/4 {
		t.Errorf("%d UE counter records for %d devices", len(shared), cfg.Devices)
	}
}

// BenchmarkCityParallelBuildAndRun is one repetition of the city_par bench
// workload for -benchmem and -cpuprofile. The per-window metrics are counts
// of work, not time: a boundary that sampled every device would report
// 10 000 samples/window.
func BenchmarkCityParallelBuildAndRun(b *testing.B) {
	cfg := cityParRep()
	b.ReportAllocs()
	var st ParallelCityStats
	for i := 0; i < b.N; i++ {
		var err error
		if _, st, err = RunCityParallel(cfg); err != nil {
			b.Fatal(err)
		}
	}
	windows := float64(st.Windows)
	b.ReportMetric(float64(st.PositionSamples)/windows, "samples/window")
	b.ReportMetric(float64(st.LegRefreshes)/windows, "leg-refreshes/window")
	b.ReportMetric(float64(st.ScanCandidates)/windows, "scan-candidates/window")
}
