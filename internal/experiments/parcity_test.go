package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"d2dhb/internal/core"
	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/trace"
)

// parGoldenConfig is the pinned equivalence scenario: big enough for every
// interaction kind (matches, forwards, flushes, acks, fallbacks, busy
// relays, migrations), small enough that the full seeds × tiles matrix
// runs in well under a second.
func parGoldenConfig(seed int64) ParallelCityConfig {
	return ParallelCityConfig{
		CityConfig: CityConfig{
			Seed:          seed,
			Devices:       400,
			RelayFraction: 0.10,
			Side:          200,
			Duration:      300 * time.Second,
			Capacity:      16,
		},
		Tiles:        1,
		CaptureTrace: true,
	}
}

// parGoldens pins the parallel kernel's output — report digest and
// canonical trace digest — for the three golden seeds. The values were
// recorded from the initial implementation; any change to the windowed
// model's observable behaviour must update them deliberately.
var parGoldens = map[int64]struct{ rep, trace string }{
	1: {
		rep:   "e4d9e1b24ff1f4589c025180f9910d68dea58e491f73d6804a4a1added1c6202",
		trace: "ce7b02b9b09eec82f38346a675b1ebfc83a187c36bd18b4e743643e730eb83b2",
	},
	7: {
		rep:   "cf13bc259f098309f1c17380709ebdadfa9714e5820a2ec2c40baf8f258afb11",
		trace: "244c16c4db4b754d57958d4073800e5034a6410657120f8a8886ef2159fe4829",
	},
	42: {
		rep:   "a75bd43189b20b206542646dc1f76971426abff4a03a225cdf7de7470869a3a0",
		trace: "60b0cde99e9d4768e5bac5de07c2a86fc530a780fb0c762d8c5f92b39118250c",
	},
}

// TestCityParallelEquivalenceGolden is the determinism-equivalence suite:
// for each pinned golden seed, the same city at tiles=1, 4 and 16 must
// produce bit-identical report digests, trace digests and kernel event
// counts — and match the pinned goldens. The kernel's work counters are
// counts of what the run did, not of how it was partitioned, so they must
// agree across tile counts too. At tiles=16 the run repeats at GOMAXPROCS
// 1, 2 and NumCPU: the digests may not depend on how many cores the tiles'
// workers actually get.
func TestCityParallelEquivalenceGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type work struct{ samples, refreshes, candidates int }
	type run struct{ tiles, procs int }
	cores := runtime.NumCPU()
	runs := []run{{1, cores}, {4, cores}, {16, 1}, {16, 2}, {16, cores}}
	for seed, want := range parGoldens {
		var single work
		for _, r := range runs {
			tiles := r.tiles
			runtime.GOMAXPROCS(r.procs)
			cfg := parGoldenConfig(seed)
			cfg.Tiles = tiles
			rep, st, err := RunCityParallel(cfg)
			if err != nil {
				t.Fatalf("seed=%d %+v: %v", seed, r, err)
			}
			if got := rep.Digest(); got != want.rep {
				t.Errorf("seed=%d %+v report digest %s, want %s", seed, r, got, want.rep)
			}
			if st.TraceDigest != want.trace {
				t.Errorf("seed=%d %+v trace digest %s, want %s", seed, r, st.TraceDigest, want.trace)
			}
			if st.Tiles != tiles && !(tiles == 1 && st.Tiles == 1) {
				t.Errorf("seed=%d: stats report %d tiles, want %d", seed, st.Tiles, tiles)
			}
			got := work{st.PositionSamples, st.LegRefreshes, st.ScanCandidates}
			if tiles == 1 {
				single = got
				if got.samples == 0 || got.refreshes == 0 || got.candidates == 0 {
					t.Errorf("seed=%d: work counters %+v, want every one non-zero", seed, got)
				}
				// Static UEs are never sampled: 400 devices at every one of
				// the 29 published boundaries would be 11 600.
				if all := cfg.Devices * (st.Windows - 1); got.samples >= all*2/3 {
					t.Errorf("seed=%d: %d position samples, sampling everyone would be %d", seed, got.samples, all)
				}
			} else if got != single {
				t.Errorf("seed=%d %+v work counters %+v, tiles=1 counted %+v", seed, r, got, single)
			}
		}
	}
}

// TestCityParallelEventsPartitionIndependent pins the kernel-event
// invariant the bench metrics rely on: the number of scheduler events
// fired is identical for any tile count (every agenda task firing is
// exactly one scheduler event, wherever the agenda lives).
func TestCityParallelEventsPartitionIndependent(t *testing.T) {
	var events []uint64
	for _, tiles := range []int{1, 4, 16} {
		cfg := parGoldenConfig(7)
		cfg.Tiles = tiles
		cfg.CaptureTrace = false
		_, st, err := RunCityParallel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, st.Events)
	}
	if events[0] != events[1] || events[0] != events[2] {
		t.Fatalf("events vary with tile count: %v", events)
	}
}

// TestCityParallelBorderStraddlers runs a dense small-area city on a fine
// tile grid, so the population's vehicles (8–15 m/s) cross tile borders
// every few windows and static devices sit right on tile edges. Run under
// -race in CI, it doubles as the border-crossing race test; the digest
// comparison proves migrations are behaviour-neutral.
func TestCityParallelBorderStraddlers(t *testing.T) {
	base := ParallelCityConfig{
		CityConfig: CityConfig{
			Seed:          2017,
			Devices:       200,
			RelayFraction: 0.15,
			Side:          100, // 16 tiles of 25 m: vehicles cross every 2-3 windows
			Duration:      300 * time.Second,
			Capacity:      8,
		},
		Window:       5 * time.Second,
		CaptureTrace: true,
	}
	var reps, traces []string
	for _, tiles := range []int{1, 16} {
		cfg := base
		cfg.Tiles = tiles
		rep, st, err := RunCityParallel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep.Digest())
		traces = append(traces, st.TraceDigest)
		if tiles == 16 && st.Migrations == 0 {
			t.Error("no migrations in a fast-mover scenario; border crossing untested")
		}
	}
	if reps[0] != reps[1] {
		t.Errorf("report digests diverge across the border-heavy grid: %s vs %s", reps[0], reps[1])
	}
	if traces[0] != traces[1] {
		t.Errorf("trace digests diverge across the border-heavy grid: %s vs %s", traces[0], traces[1])
	}
}

// TestCityParallelSnapshotBuffers pins the two-buffer rule of parEnv.snap.
// A static UE is written into both snapshot buffers at set-up and never
// again, so after an even and after an odd number of swaps it must read the
// position it was placed at, as must a parked relay, which is sampled at
// every boundary. A relay that shuts down mid-window is still sampled: the
// snapshot published at the end of that window says it is not accepting,
// while the buffer swapped out — one boundary older — still has it on the
// air.
func TestCityParallelSnapshotBuffers(t *testing.T) {
	const window = 10 * time.Second
	profile := stdProfile()
	parked, quitter := geo.Point{X: 20, Y: 20}, geo.Point{X: 80, Y: 80}
	still := geo.Point{X: 70, Y: 30}
	for _, windows := range []int{3, 4} { // two swaps, three swaps
		walker, err := geo.NewRandomWaypoint(geo.Square(100), geo.Point{X: 40, Y: 60}, 8, 15, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		pop := cityPopulation{
			relays: []core.RelaySpec{
				{ID: "relay-parked", Profile: profile, Mobility: geo.Static{P: parked}, Capacity: 4},
				{ID: "relay-quitter", Profile: profile, Mobility: geo.Static{P: quitter}, Capacity: 4},
			},
			ues: []core.UESpec{
				{ID: "ue-still", Apps: []hbmsg.AppProfile{profile}, Mobility: geo.Static{P: still}, StartOffset: time.Second},
				{ID: "ue-walker", Apps: []hbmsg.AppProfile{profile}, Mobility: walker, StartOffset: time.Second},
			},
		}
		cfg := ParallelCityConfig{
			CityConfig: CityConfig{Seed: 1, Devices: 4, RelayFraction: 0.5, Side: 100,
				Duration: time.Duration(windows) * window, Capacity: 4},
			Tiles: 4, Window: window,
		}
		c, err := newParCity(cfg, pop)
		if err != nil {
			t.Fatal(err)
		}
		env := c.env
		// Shut the second relay down in the middle of the last window whose
		// boundary is published.
		q := env.devices[1]
		if _, err := q.agenda.At(cfg.Duration-window-window/2, q.relay.Stop); err != nil {
			t.Fatal(err)
		}
		_, st, err := c.run()
		if err != nil {
			t.Fatal(err)
		}
		if st.Windows != windows {
			t.Fatalf("ran %d windows, want %d", st.Windows, windows)
		}
		for order, want := range []geo.Point{parked, quitter, still} {
			if got := env.snap[order].pos; got != want {
				t.Errorf("%d windows: %s reads position %v from the snapshot, placed at %v",
					windows, env.devices[order].id, got, want)
			}
		}
		if got, at0 := env.snap[3].pos, walker.Pos(0); got == at0 {
			t.Errorf("%d windows: the vehicle still reads its starting position %v", windows, got)
		}
		if !env.snap[0].accepting {
			t.Errorf("%d windows: the parked relay is not accepting in the published snapshot", windows)
		}
		if env.snap[1].accepting {
			t.Errorf("%d windows: a relay that shut down a window ago is still accepting", windows)
		}
		if !env.next[1].accepting {
			t.Errorf("%d windows: the relay was not on the air one boundary before it shut down; the check above proves nothing", windows)
		}
		// Two relays and the vehicle at every published boundary.
		if want := 3 * (windows - 1); st.PositionSamples != want {
			t.Errorf("%d windows: %d position samples, want %d (the static UE is never sampled)", windows, st.PositionSamples, want)
		}
	}
}

// memTracer retains every emitted event for white-box inspection.
type memTracer struct {
	mu  sync.Mutex
	evs []trace.Event
}

func (m *memTracer) Emit(ev trace.Event) {
	m.mu.Lock()
	m.evs = append(m.evs, ev)
	m.mu.Unlock()
}

// TestCityParallelLookaheadDelivery is the border-lookahead white-box
// test: every successful D2D forward must surface at its relay — as a
// collect or a reject — at exactly the next window boundary strictly
// after the send, including sends that land exactly on a boundary.
// Forwards from the final window have no boundary left and must vanish
// (the horizon cut).
func TestCityParallelLookaheadDelivery(t *testing.T) {
	const windowMs = int64(5000)
	tr := &memTracer{}
	cfg := parGoldenConfig(42)
	cfg.Tiles = 4
	cfg.Window = time.Duration(windowMs) * time.Millisecond
	cfg.Tracer = tr
	_, _, err := RunCityParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	horizonMs := cfg.Duration.Milliseconds()

	type key struct {
		src string
		seq uint64
	}
	arrivals := make(map[key][]int64) // collect/reject instants per forwarded hb
	sends := 0
	for _, ev := range tr.evs {
		switch ev.Kind {
		case trace.KindCollect, trace.KindReject:
			k := key{src: ev.Peer, seq: ev.Seq}
			arrivals[k] = append(arrivals[k], ev.At.Milliseconds())
		}
	}
	finalCut := 0
	for _, ev := range tr.evs {
		if ev.Kind != trace.KindD2DSend {
			continue
		}
		sends++
		// The boundary strictly after the send; a send exactly on a
		// boundary belongs to the window starting there.
		next := (ev.At.Milliseconds()/windowMs)*windowMs + windowMs
		if next >= horizonMs {
			// The barrier at the horizon is final: its ops are discarded,
			// so a forward due exactly at the horizon is cut too.
			finalCut++
			for _, at := range arrivals[key{src: ev.Device, seq: ev.Seq}] {
				if at > ev.At.Milliseconds() {
					t.Errorf("forward %s/%d sent at %dms inside the final window arrived at %dms past the horizon cut",
						ev.Device, ev.Seq, ev.At.Milliseconds(), at)
				}
			}
			continue
		}
		found := false
		for _, at := range arrivals[key{src: ev.Device, seq: ev.Seq}] {
			if at == next {
				found = true
			} else if at > ev.At.Milliseconds() && at != next {
				t.Errorf("forward %s/%d sent at %dms arrived at %dms, want the boundary at %dms",
					ev.Device, ev.Seq, ev.At.Milliseconds(), at, next)
			}
		}
		if !found {
			t.Errorf("forward %s/%d sent at %dms never arrived at its boundary %dms",
				ev.Device, ev.Seq, ev.At.Milliseconds(), next)
		}
	}
	if sends == 0 {
		t.Fatal("no D2D forwards in the lookahead scenario")
	}
}

// TestCityParallelHorizonCutWholeRun collapses the run into one closed
// window (window == duration): every forward is created inside the final
// window, so none may reach a relay, while direct sends and relay flushes
// still deliver.
func TestCityParallelHorizonCutWholeRun(t *testing.T) {
	cfg := parGoldenConfig(1)
	cfg.Window = cfg.Duration
	rep, st, err := RunCityParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Windows != 1 {
		t.Fatalf("expected a single window, got %d", st.Windows)
	}
	forwards, collected := 0, 0
	for _, d := range rep.Devices {
		if d.UE != nil {
			forwards += d.UE.SentViaD2D
		}
		if d.Relay != nil {
			collected += d.Relay.Collected
		}
	}
	// With no boundary snapshot ever published, no relay is discoverable:
	// nothing is forwarded and everything goes direct.
	if forwards != 0 || collected != 0 {
		t.Errorf("single-window run forwarded %d / collected %d, want 0/0", forwards, collected)
	}
	if st.Deliveries == 0 {
		t.Error("no deliveries at all; direct path broken")
	}
}

// TestCityParallelTracksSequential pins what EXPERIMENTS.md says in prose:
// the windowed substrate is a semantic variant of the sequential one (D2D
// effects land at window boundaries), not a different model, so the same
// city on both kernels agrees on its aggregates. Measured on this golden
// configuration at the default 10 s window, sequential vs windowed:
//
//	seed  1: deliveries 340 vs 335, L3 2446 vs 2438, on-time 1.0000 vs 1.0000
//	seed  7: deliveries 348 vs 349, L3 2569 vs 2578, on-time 0.9971 vs 1.0000
//	seed 42: deliveries 342 vs 343, L3 2403 vs 2435, on-time 0.9971 vs 0.9971
//
// i.e. at most 1.5 % on deliveries (5 heartbeats — with ~340 per run one
// is 0.3 %), 1.3 % on L3 messages and 0.003 on the on-time rate. The
// tolerances below are 2 %, 2 % and 0.005.
func TestCityParallelTracksSequential(t *testing.T) {
	within := func(name string, seq, par, rel float64) {
		t.Helper()
		if math.Abs(par-seq) > rel*seq {
			t.Errorf("%s: sequential %v vs windowed %v, apart by more than %.1f %%", name, seq, par, rel*100)
		}
	}
	for _, seed := range []int64{1, 7, 42} {
		cfg := parGoldenConfig(seed)
		cfg.CaptureTrace = false
		_, seq, err := RunCity(cfg.CityConfig)
		if err != nil {
			t.Fatalf("seed=%d sequential: %v", seed, err)
		}
		_, par, err := RunCityParallel(cfg)
		if err != nil {
			t.Fatalf("seed=%d windowed: %v", seed, err)
		}
		within(fmt.Sprintf("seed=%d deliveries", seed), float64(seq.Deliveries), float64(par.Deliveries), 0.02)
		within(fmt.Sprintf("seed=%d L3 messages", seed), float64(seq.L3Messages), float64(par.L3Messages), 0.02)
		if math.Abs(par.OnTimeRate-seq.OnTimeRate) > 0.005 {
			t.Errorf("seed=%d on-time rate: sequential %.4f vs windowed %.4f", seed, seq.OnTimeRate, par.OnTimeRate)
		}
		if seq.Relays != par.Relays || seq.UEs != par.UEs {
			t.Errorf("seed=%d rosters differ: %d+%d vs %d+%d", seed, seq.Relays, seq.UEs, par.Relays, par.UEs)
		}
	}
}

func TestCityParallelValidation(t *testing.T) {
	cfg := parGoldenConfig(1)
	cfg.Tiles = 0
	if _, _, err := RunCityParallel(cfg); err == nil {
		t.Error("tiles=0 accepted")
	}
	cfg = parGoldenConfig(1)
	cfg.Window = -time.Second
	if _, _, err := RunCityParallel(cfg); err == nil {
		t.Error("negative window accepted")
	}
	cfg = parGoldenConfig(1)
	cfg.Devices = 0
	if _, _, err := RunCityParallel(cfg); err == nil {
		t.Error("zero devices accepted")
	}
}

// TestCityParallelMillionSmoke proves the kernel's memory shape holds at
// one million devices. It needs a few GB and a couple of minutes, so it
// only runs when explicitly requested.
func TestCityParallelMillionSmoke(t *testing.T) {
	if os.Getenv("D2D_CITY_1M") != "1" {
		t.Skip("set D2D_CITY_1M=1 to run the 1M-device smoke")
	}
	rep, st, err := RunCityParallel(CityParallelMillion(64))
	if err != nil {
		t.Fatal(err)
	}
	if st.Deliveries == 0 || rep.Deliveries != st.Deliveries {
		t.Fatalf("1M smoke: deliveries %d / %d", st.Deliveries, rep.Deliveries)
	}
	t.Logf("1M smoke: events=%d deliveries=%d onTime=%.4f migrations=%d",
		st.Events, st.Deliveries, st.OnTimeRate, st.Migrations)
}

// FuzzTileMergeVsSequential fuzzes the partition-independence invariant:
// any (seed, population, tile count, window) must produce the same report
// and trace digests as the single-tile run of the same configuration.
func FuzzTileMergeVsSequential(f *testing.F) {
	f.Add(int64(1), 40, 4, 10)
	f.Add(int64(7), 80, 9, 7)
	f.Add(int64(42), 150, 6, 23)
	f.Add(int64(2017), 20, 2, 1)
	f.Fuzz(func(t *testing.T, seed int64, devices, tiles, windowSecs int) {
		devices = 20 + abs(devices)%131
		tiles = 2 + abs(tiles)%8
		windowSecs = 1 + abs(windowSecs)%30
		base := ParallelCityConfig{
			CityConfig: CityConfig{
				Seed:          seed,
				Devices:       devices,
				RelayFraction: 0.10,
				Side:          150,
				Duration:      120 * time.Second,
				Capacity:      8,
			},
			Window:       time.Duration(windowSecs) * time.Second,
			CaptureTrace: true,
		}
		run := func(tiles int) (string, string) {
			cfg := base
			cfg.Tiles = tiles
			rep, st, err := RunCityParallel(cfg)
			if err != nil {
				t.Fatalf("tiles=%d: %v", tiles, err)
			}
			return rep.Digest(), st.TraceDigest
		}
		seqRep, seqTrace := run(1)
		parRep, parTrace := run(tiles)
		if parRep != seqRep {
			t.Errorf("seed=%d devices=%d tiles=%d window=%ds: report digest diverges from tiles=1",
				seed, devices, tiles, windowSecs)
		}
		if parTrace != seqTrace {
			t.Errorf("seed=%d devices=%d tiles=%d window=%ds: trace digest diverges from tiles=1",
				seed, devices, tiles, windowSecs)
		}
	})
}

// BenchmarkCityParallelBarrier runs the city_par roster and times the
// barrier alone: the serial section every worker waits out at each of the
// run's boundaries. ns/window and B/window are per barrier call.
func BenchmarkCityParallelBarrier(b *testing.B) {
	cfg := cityParRep()
	var serial time.Duration
	var bytes uint64
	windows := 0
	for i := 0; i < b.N; i++ {
		pop, err := buildCityPopulation(cfg.CityConfig, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			b.Fatal(err)
		}
		c, err := newParCity(cfg, pop)
		if err != nil {
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		barrier := func(boundary time.Duration, final bool) error {
			// The workers are parked: whatever is allocated is the barrier's.
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			err := c.barrier(boundary, final)
			serial += time.Since(t0)
			runtime.ReadMemStats(&after)
			bytes += after.TotalAlloc - before.TotalAlloc
			windows++
			return err
		}
		if err := c.group.Run(cfg.Duration, c.window(), c.begin, c.end, barrier); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(serial.Nanoseconds())/float64(windows), "ns/window")
	b.ReportMetric(float64(bytes)/float64(windows), "B/window")
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
