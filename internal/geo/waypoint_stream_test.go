package geo

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// residentWalker is the reference RandomWaypoint: the implementation as it
// was while every walker kept its own rand.Rand for life. The buffered
// walker must reproduce its positions bit for bit.
type residentWalker struct {
	area               Rect
	minSpeed, maxSpeed float64
	pause              time.Duration
	rng                *rand.Rand
	legs               []waypointLeg
}

func newResidentWalker(area Rect, start Point, minSpeed, maxSpeed float64, pause time.Duration, seed int64) *residentWalker {
	return &residentWalker{
		area: area, minSpeed: minSpeed, maxSpeed: maxSpeed, pause: pause,
		rng:  rand.New(rand.NewSource(seed)),
		legs: []waypointLeg{{from: start, to: start, duration: pause}},
	}
}

func (w *residentWalker) Pos(at time.Duration) Point {
	if at < 0 {
		at = 0
	}
	for {
		last := w.legs[len(w.legs)-1]
		end := last.start + last.duration
		if end > at {
			break
		}
		from := last.to
		to := w.area.RandomPoint(w.rng)
		speed := w.minSpeed + w.rng.Float64()*(w.maxSpeed-w.minSpeed)
		travel := time.Duration(from.Dist(to) / speed * float64(time.Second))
		if travel <= 0 {
			travel = time.Millisecond
		}
		w.legs = append(w.legs,
			waypointLeg{start: end, from: from, to: to, duration: travel},
			waypointLeg{start: end + travel, from: to, to: to, duration: w.pause},
		)
	}
	for i := len(w.legs) - 1; i >= 0; i-- {
		if leg := w.legs[i]; at >= leg.start {
			return interpolate(leg, at)
		}
	}
	return w.legs[0].from
}

// walkerCase is one (geometry, seed) pair plus a query schedule long enough
// to take the buffered walker through several refills.
type walkerCase struct {
	area               Rect
	start              Point
	minSpeed, maxSpeed float64
	pause              time.Duration
	seed               int64
	horizon            time.Duration
}

func (c walkerCase) String() string {
	return fmt.Sprintf("seed=%d pause=%v speed=[%v,%v]", c.seed, c.pause, c.minSpeed, c.maxSpeed)
}

// walkerCases covers pause == 0 (legs abut, so a zero-length pause leg sits
// between every two moves), a pausing pedestrian and a fast vehicle, each
// over a horizon of well over 40 legs. The vehicle's ~270 legs take it past
// source output rngLen, so its refills leave the closed form.
func walkerCases() []walkerCase {
	area := Square(200)
	var cases []walkerCase
	for _, seed := range []int64{1, 7, 42, -3, 1 << 40} {
		cases = append(cases,
			walkerCase{area, Point{20, 30}, 8, 15, 0, seed, 40 * time.Minute},
			walkerCase{area, Point{100, 100}, 0.5, 2, 20 * time.Second, seed, 4 * time.Hour},
			walkerCase{area, Point{0, 200}, 1, 1, 0, seed + 1000, 3 * time.Hour},
		)
	}
	return cases
}

// queries draws n instants in [0, horizon): mostly increasing with
// backward jumps and exact repeats mixed in, the way a Medium re-bins and
// a Scan re-reads positions.
func queries(rng *rand.Rand, horizon time.Duration, n int) []time.Duration {
	out := make([]time.Duration, 0, n)
	var at time.Duration
	for len(out) < n {
		switch r := rng.Intn(10); {
		case r == 0 && len(out) > 0: // repeat an earlier instant exactly
			at = out[rng.Intn(len(out))]
		case r == 1: // jump anywhere, backwards included
			at = time.Duration(rng.Int63n(int64(horizon)))
		default:
			at += time.Duration(rng.Int63n(int64(2 * horizon / time.Duration(n))))
		}
		out = append(out, at%horizon)
	}
	return out
}

// TestRandomWaypointMatchesResidentRNG is the stream-equivalence property:
// whatever order positions are asked for, the buffered walker and a walker
// with a resident rand.Rand of the same seed agree on every Point, across
// at least four refills of the draw buffer, and on both sides of source
// output rngLen.
func TestRandomWaypointMatchesResidentRNG(t *testing.T) {
	qrng := rand.New(rand.NewSource(99))
	var deepest uint32
	for _, c := range walkerCases() {
		w, err := NewRandomWaypoint(c.area, c.start, c.minSpeed, c.maxSpeed, c.pause, c.seed)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		ref := newResidentWalker(c.area, c.start, c.minSpeed, c.maxSpeed, c.pause, c.seed)
		for _, at := range queries(qrng, c.horizon, 600) {
			if got, want := w.Pos(at), ref.Pos(at); got != want {
				t.Fatalf("%v: Pos(%v) = %v, resident-RNG walker says %v", c, at, got, want)
			}
		}
		// Walking to the horizon last makes both walkers cover the same legs.
		if got, want := w.Pos(c.horizon), ref.Pos(c.horizon); got != want {
			t.Fatalf("%v: Pos(horizon) = %v, want %v", c, got, want)
		}
		// The walker keeps only its newest move and pause, so the leg count
		// is read off the reference, which keeps them all.
		moves := (len(ref.legs) - 1) / 2
		if refills := int(w.draws.taken)/drawBuffer - 1; moves < 40 || refills < 4 {
			t.Fatalf("%v: only %d legs and %d refills; the case must cross ≥ 40 legs and ≥ 4 refills", c, moves, refills)
		}
		if got, want := w.legs[len(w.legs)-1], ref.legs[len(ref.legs)-1]; got != want {
			t.Fatalf("%v: newest leg %+v, resident-RNG walker's is %+v", c, got, want)
		}
		deepest = max(deepest, w.draws.taken)
	}
	if deepest <= rngLen {
		t.Fatalf("deepest walker took %d source outputs; one case must cross output %d", deepest, rngLen)
	}
}

// TestRandomWaypointPooledSourceIsGoroutineSafe advances 64 walkers from 8
// goroutines at once, as tiles of the parallel kernel do: every refill
// borrows from the one shared pool, and no walker may see another's stream.
// Run under -race.
func TestRandomWaypointPooledSourceIsGoroutineSafe(t *testing.T) {
	const walkers, workers = 64, 8
	area := Square(300)
	horizon := 30 * time.Minute
	type probe struct {
		at  time.Duration
		pos Point
	}
	want := make([][]probe, walkers)
	ws := make([]*RandomWaypoint, walkers)
	for i := range ws {
		seed := int64(1000 + i)
		ref := newResidentWalker(area, Point{150, 150}, 8, 15, 0, seed)
		for at := time.Duration(0); at <= horizon; at += 7 * time.Second {
			want[i] = append(want[i], probe{at, ref.Pos(at)})
		}
		var err error
		if ws[i], err = NewRandomWaypoint(area, Point{150, 150}, 8, 15, 0, seed); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Step the goroutine's walkers in lockstep so refills of
			// different walkers interleave across goroutines.
			for k := range want[0] {
				for i := g; i < walkers; i += workers {
					if got := ws[i].Pos(want[i][k].at); got != want[i][k].pos {
						t.Errorf("walker %d: Pos(%v) = %v, want %v", i, want[i][k].at, got, want[i][k].pos)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for i, w := range ws {
		if refills := int(w.draws.taken)/drawBuffer - 1; refills < 4 {
			t.Fatalf("walker %d refilled %d times; the test must cross ≥ 4 refills", i, refills)
		}
	}
}

// streamSeeds are the seeds the stream property is checked at: every
// branch of the seed reduction (0, negative, multiples of 2³¹−1, the
// reduction's own stand-in for 0, values past 32 bits) and 200 random ones.
func streamSeeds() []int64 {
	seeds := []int64{0, 1, -1, int32max, 1 << 31, -1 << 40, 1 << 62, 89482311}
	rng := rand.New(rand.NewSource(2017))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

// TestDrawStreamIsTheRandFloat64Stream checks the closed form against the
// source at every output it serves, then the stream alone, draw by draw,
// across buffer boundaries and both branches of the recurrence into the
// re-seeded tail.
func TestDrawStreamIsTheRandFloat64Stream(t *testing.T) {
	for _, seed := range streamSeeds() {
		src := rand.NewSource(seed).(rand.Source64)
		s := reducedSeed(seed)
		for k := 0; k < rngLen; k++ {
			if got, want := rngOutput(s, k), src.Uint64(); got != want {
				t.Fatalf("seed %d: output %d = %#x, source says %#x", seed, k, got, want)
			}
		}
		d := newDrawStream(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			if got, want := d.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d: draw %d = %v, want %v", seed, i, got, want)
			}
		}
	}
}

// TestUnitFloatResampleEdge pins the one place an output is not a draw:
// Int63 values from 2⁶³−512 up round to 1.0, which Float64 skips.
func TestUnitFloatResampleEdge(t *testing.T) {
	for _, c := range []struct {
		u  uint64
		ok bool
	}{
		{0, true},
		{1<<63 - 513, true},
		{1<<63 - 512, false},
		{1<<63 - 1, false},
		{1<<64 - 513, true}, // the top bit is masked off, as Int63 does
	} {
		f, ok := unitFloat(c.u)
		if ok != c.ok || ok && !(f >= 0 && f < 1) {
			t.Errorf("unitFloat(%#x) = %v, %v; want ok %v and a value in [0, 1)", c.u, f, ok, c.ok)
		}
	}
}

// TestDrawStreamSkipsOutputsNotDraws forces the resample Float64 makes
// 2⁻⁵⁴ of the time, which no reachable seed and depth shows: it patches one
// cooked word so that output 30 of seed 5 rounds to 1. The stream must
// consume that output without drawing it, and the re-seeded tail must
// resume at the output after the last one consumed, not the last draw.
func TestDrawStreamSkipsOutputsNotDraws(t *testing.T) {
	const seed, k = 5, 30
	saved := rngCooked
	defer func() { rngCooked = saved }()
	s := reducedSeed(seed)
	// Output k < rngTap is initWord(333−k) + initWord(606−k).
	rngCooked[333-k] ^= initWord(s, 333-k) ^ (1<<63 - 1 - initWord(s, 606-k))
	if _, ok := unitFloat(rngOutput(s, k)); ok {
		t.Fatal("the patched output does not round to 1")
	}
	src := rand.NewSource(seed).(rand.Source64)
	var want []float64
	for n := 0; n < rngLen+4*drawBuffer; n++ {
		u := src.Uint64()
		if n < rngLen {
			u = rngOutput(s, n)
		}
		if f, ok := unitFloat(u); ok {
			want = append(want, f)
		}
	}
	d := newDrawStream(seed)
	for i, w := range want {
		if got := d.Float64(); got != w {
			t.Fatalf("draw %d = %v, want %v", i, got, w)
		}
	}
	// Every buffered draw took one output, and the skipped output one more.
	buffered := (len(want) + drawBuffer - 1) / drawBuffer * drawBuffer
	if d.taken != uint32(buffered+1) {
		t.Fatalf("taken = %d after buffering %d draws and one skip, want %d", d.taken, buffered, buffered+1)
	}
}

// TestDrawStreamZeroAllocs pins a refill at zero garbage on both paths:
// the closed form and the re-seeded tail, whose source comes from the pool.
func TestDrawStreamZeroAllocs(t *testing.T) {
	d := newDrawStream(1)
	for _, taken := range []uint32{48, 5500} {
		allocs := testing.AllocsPerRun(50, func() {
			d.taken = taken
			d.refill()
		})
		if allocs != 0 && !raceEnabled {
			t.Errorf("refill at output %d: %.1f allocs, want 0", taken, allocs)
		}
	}
}

// BenchmarkDrawStreamRefill prices one refill, amortized over drawBuffer
// draws, at two depths: output 48, in the closed form, where every city
// walker stays; and output 5 500, where a vehicle ends a 24-hour walk, on
// the re-seeded tail.
func BenchmarkDrawStreamRefill(b *testing.B) {
	for _, c := range []struct {
		name  string
		taken uint32
	}{{"closed_form_48", 48}, {"tail_5500", 5500}} {
		b.Run(c.name, func(b *testing.B) {
			d := newDrawStream(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.taken = c.taken
				d.refill()
			}
		})
	}
}
