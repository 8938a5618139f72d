package simtime

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestTileGroupValidation(t *testing.T) {
	if _, err := NewTileGroup(1, 0); err == nil {
		t.Fatal("zero tiles accepted")
	}
	g, err := NewTileGroup(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(0, time.Second, nil, nil, nil); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if err := g.Run(time.Second, 0, nil, nil, nil); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestTileGroupDerivedStreamsDiffer(t *testing.T) {
	g, err := NewTileGroup(42, 4)
	if err != nil {
		t.Fatal(err)
	}
	draws := make(map[int64]int)
	for i := 0; i < g.Tiles(); i++ {
		draws[g.Scheduler(i).Rand().Int63()]++
	}
	if len(draws) != 4 {
		t.Fatalf("tile RNG streams collide: %d distinct first draws of 4", len(draws))
	}
}

// TestTileGroupWindowBoundaries pins the window semantics the parallel
// city model depends on: an event scheduled exactly at a boundary B runs
// in the window that starts at B — after barrier(B) and after that
// window's begin hook — and events exactly at the horizon do fire.
func TestTileGroupWindowBoundaries(t *testing.T) {
	g, err := NewTileGroup(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Scheduler(0)
	var order []string
	for _, at := range []time.Duration{9 * time.Second, 10 * time.Second, 30 * time.Second} {
		at := at
		if _, err := s.At(at, func() { order = append(order, fmt.Sprintf("event@%v", at)) }); err != nil {
			t.Fatal(err)
		}
	}
	begin := func(tile int, start time.Duration) error {
		order = append(order, fmt.Sprintf("begin@%v", start))
		return nil
	}
	end := func(tile int, boundary time.Duration) error {
		order = append(order, fmt.Sprintf("end@%v", boundary))
		return nil
	}
	barrier := func(b time.Duration, final bool) error {
		order = append(order, fmt.Sprintf("barrier@%v final=%v", b, final))
		return nil
	}
	if err := g.Run(30*time.Second, 10*time.Second, begin, end, barrier); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"begin@0s", "event@9s", "end@10s", "barrier@10s final=false",
		"begin@10s", "event@10s", "end@20s", "barrier@20s final=false",
		"begin@20s", "event@30s", "end@30s", "barrier@30s final=true",
	}
	if len(order) != len(want) {
		t.Fatalf("order %v\nwant %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v\nwant %v", order, want)
		}
	}
	if s.Now() != 30*time.Second {
		t.Fatalf("clock at %v, want horizon", s.Now())
	}
}

func TestTileGroupPartialFinalWindow(t *testing.T) {
	g, err := NewTileGroup(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var boundaries []time.Duration
	barrier := func(b time.Duration, final bool) error {
		boundaries = append(boundaries, b)
		return nil
	}
	if err := g.Run(25*time.Second, 10*time.Second, nil, nil, barrier); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Second, 20 * time.Second, 25 * time.Second}
	if len(boundaries) != len(want) {
		t.Fatalf("boundaries %v, want %v", boundaries, want)
	}
	for i := range want {
		if boundaries[i] != want[i] {
			t.Fatalf("boundaries %v, want %v", boundaries, want)
		}
	}
	for i := 0; i < g.Tiles(); i++ {
		if g.Scheduler(i).Now() != 25*time.Second {
			t.Fatalf("tile %d clock %v, want horizon", i, g.Scheduler(i).Now())
		}
	}
}

func TestTileGroupHookErrorsAbort(t *testing.T) {
	boom := errors.New("boom")

	g, _ := NewTileGroup(1, 2)
	err := g.Run(10*time.Second, time.Second, func(tile int, _ time.Duration) error {
		if tile == 1 {
			return boom
		}
		return nil
	}, nil, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("begin error not surfaced: %v", err)
	}

	g, _ = NewTileGroup(1, 2)
	err = g.Run(10*time.Second, time.Second, nil, func(tile int, _ time.Duration) error {
		if tile == 0 {
			return boom
		}
		return nil
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("end error not surfaced: %v", err)
	}

	g, _ = NewTileGroup(1, 2)
	calls := 0
	err = g.Run(10*time.Second, time.Second, nil, nil, func(time.Duration, bool) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("barrier error not surfaced after first call: err=%v calls=%d", err, calls)
	}
}

// TestTileGroupMigrationNeverDropsOrDuplicates is the migration property
// test: random agendas with random task sets are moved to random tiles at
// every window boundary, and every scheduled task must still run exactly
// once, at its exact instant, in per-agenda scheduling order, as exactly
// one kernel event. It holds for a move on the barrier goroutine (Detach,
// then Attach) and for the split hand-over the city kernel uses — Detach
// in the old tile's end hook, Attach in the new tile's begin hook, the
// barrier only routing.
func TestTileGroupMigrationNeverDropsOrDuplicates(t *testing.T) {
	for _, mode := range []string{"rehome", "split"} {
		t.Run(mode, func(t *testing.T) { testMigrationProperty(t, mode == "split") })
	}
}

func testMigrationProperty(t *testing.T, split bool) {
	const (
		tiles   = 4
		agendas = 32
		horizon = 100 * time.Second
		window  = 5 * time.Second
	)
	for trial := int64(0); trial < 5; trial++ {
		rng := rand.New(rand.NewSource(1000 + trial))
		g, err := NewTileGroup(trial, tiles)
		if err != nil {
			t.Fatal(err)
		}

		type firing struct {
			agenda int
			at     time.Duration
			n      int // per-agenda scheduling index
		}
		var mu sync.Mutex
		var fired []firing
		ags := make([]*Agenda, agendas)
		home := make([]int, agendas) // the tile each agenda is on
		dest := make([]int, agendas) // where it goes at the next boundary
		scheduled := 0
		for i := range ags {
			home[i], dest[i] = rng.Intn(tiles), rng.Intn(tiles)
			ags[i] = NewAgenda(g.Scheduler(home[i]))
			n := 1 + rng.Intn(8)
			for k := 0; k < n; k++ {
				i, k := i, k
				at := time.Duration(rng.Int63n(int64(horizon) + 1))
				ag := ags[i]
				if _, err := ags[i].At(at, func() {
					mu.Lock()
					fired = append(fired, firing{agenda: i, at: at, n: k})
					mu.Unlock()
					if ag.Scheduler().Now() != at {
						t.Errorf("agenda %d task %d ran at %v, scheduled for %v", i, k, ag.Scheduler().Now(), at)
					}
				}); err != nil {
					t.Fatal(err)
				}
				scheduled++
			}
		}

		// The split hooks touch an agenda only from the tile that owns it:
		// home and dest are written by the barrier alone.
		arrivals := make([][]int, tiles)
		var begin func(int, time.Duration) error
		var end func(int, time.Duration) error
		if split {
			begin = func(tile int, _ time.Duration) error {
				for _, i := range arrivals[tile] {
					if err := ags[i].Attach(g.Scheduler(tile)); err != nil {
						return err
					}
				}
				return nil
			}
			end = func(tile int, b time.Duration) error {
				for i, a := range ags {
					if home[i] == tile && dest[i] != tile && b < horizon {
						a.Detach()
					}
				}
				return nil
			}
		}
		barrier := func(b time.Duration, final bool) error {
			if final {
				return nil
			}
			for tile := range arrivals {
				arrivals[tile] = arrivals[tile][:0]
			}
			for i, a := range ags {
				if split {
					if dest[i] != home[i] {
						arrivals[dest[i]] = append(arrivals[dest[i]], i)
					}
				} else if dest[i] != home[i] {
					a.Detach()
					if err := a.Attach(g.Scheduler(dest[i])); err != nil {
						return err
					}
				}
				home[i], dest[i] = dest[i], rng.Intn(tiles)
			}
			return nil
		}
		if err := g.Run(horizon, window, begin, end, barrier); err != nil {
			t.Fatal(err)
		}

		if len(fired) != scheduled {
			t.Fatalf("trial %d: %d tasks fired, %d scheduled", trial, len(fired), scheduled)
		}
		if g.Fired() != uint64(scheduled) {
			t.Fatalf("trial %d: %d kernel events for %d task firings", trial, g.Fired(), scheduled)
		}
		seen := make(map[firing]int)
		for _, f := range fired {
			seen[f]++
		}
		for f, n := range seen {
			if n != 1 {
				t.Fatalf("trial %d: task %+v fired %d times", trial, f, n)
			}
		}
		// Per-agenda order: same-instant tasks must run in scheduling order.
		perAgenda := make([][]firing, agendas)
		for _, f := range fired {
			perAgenda[f.agenda] = append(perAgenda[f.agenda], f)
		}
		for i, fs := range perAgenda {
			sorted := append([]firing(nil), fs...)
			sort.SliceStable(sorted, func(a, b int) bool {
				if sorted[a].at != sorted[b].at {
					return sorted[a].at < sorted[b].at
				}
				return sorted[a].n < sorted[b].n
			})
			for k := range fs {
				if fs[k] != sorted[k] {
					t.Fatalf("trial %d agenda %d: fired %v, want (at, stamp) order %v", trial, i, fs, sorted)
				}
			}
		}
	}
}

// TestTileGroupDetachWhileNeighbourRuns forces the overlap the split
// hand-over allows: tile 0 finishes its window and detaches an agenda in
// its end hook while tile 1's worker is still inside the same window —
// blocked, in fact, until the detach has happened. The job/result channels
// are the only synchronization between the hooks; under -race this is the
// check that the hand-over needs no more.
func TestTileGroupDetachWhileNeighbourRuns(t *testing.T) {
	const window = 10 * time.Second
	g, err := NewTileGroup(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	mover, resident := NewAgenda(g.Scheduler(0)), NewAgenda(g.Scheduler(1))
	var ranOn *Scheduler
	var ranAt time.Duration
	if _, err := mover.At(15*time.Second, func() {
		ranOn, ranAt = mover.Scheduler(), mover.Now()
	}); err != nil {
		t.Fatal(err)
	}
	detached := make(chan struct{})
	residentRan := false
	if _, err := resident.At(5*time.Second, func() {
		<-detached
		if _, err := resident.After(time.Second, func() { residentRan = true }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}

	var arriving *Agenda
	begin := func(tile int, _ time.Duration) error {
		if tile == 1 && arriving != nil {
			a := arriving
			arriving = nil
			return a.Attach(g.Scheduler(1))
		}
		return nil
	}
	end := func(tile int, b time.Duration) error {
		if tile == 0 && b == window {
			mover.Detach()
			close(detached)
		}
		return nil
	}
	barrier := func(b time.Duration, _ bool) error {
		if b == window {
			arriving = mover
		}
		return nil
	}
	if err := g.Run(3*window, window, begin, end, barrier); err != nil {
		t.Fatal(err)
	}
	if ranOn != g.Scheduler(1) || ranAt != 15*time.Second {
		t.Fatalf("the migrated task ran on %p at %v, want tile 1's scheduler %p at 15s", ranOn, ranAt, g.Scheduler(1))
	}
	if !residentRan {
		t.Fatal("tile 1's own agenda lost the task it scheduled during the overlap")
	}
	if g.Scheduler(0).Fired() != 0 {
		t.Fatalf("tile 0 fired %d events; the mover's only task belongs to tile 1", g.Scheduler(0).Fired())
	}
}

func TestSchedulerNextAtAndAdvanceTo(t *testing.T) {
	s := NewScheduler(1)
	if _, ok := s.NextAt(); ok {
		t.Fatal("NextAt on empty queue reported an event")
	}
	if _, err := s.At(5*time.Second, func() {}); err != nil {
		t.Fatal(err)
	}
	at, ok := s.NextAt()
	if !ok || at != 5*time.Second {
		t.Fatalf("NextAt = %v, %v; want 5s, true", at, ok)
	}
	if err := s.AdvanceTo(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("now %v after AdvanceTo(3s)", s.Now())
	}
	if err := s.AdvanceTo(2 * time.Second); err == nil {
		t.Fatal("AdvanceTo into the past succeeded")
	}
	if err := s.AdvanceTo(6 * time.Second); err == nil {
		t.Fatal("AdvanceTo past a queued event succeeded")
	}
	if err := s.AdvanceTo(5 * time.Second); err != nil {
		t.Fatalf("AdvanceTo to exactly the next event: %v", err)
	}
}

func TestDeriveSeedSpread(t *testing.T) {
	seen := make(map[int64]bool)
	for stream := int64(-64); stream < 64; stream++ {
		seen[DeriveSeed(2017, stream)] = true
	}
	if len(seen) != 128 {
		t.Fatalf("DeriveSeed collisions: %d distinct of 128", len(seen))
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("DeriveSeed ignores the seed")
	}
}

func TestNewDerivedRandDeterministic(t *testing.T) {
	a := NewDerivedRand(7, 3)
	b := NewDerivedRand(7, 3)
	for i := 0; i < 16; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed, stream) diverged")
		}
	}
	c := NewDerivedRand(7, 4)
	same := true
	for i := 0; i < 4; i++ {
		if a.Int63() != c.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different streams produced identical draws")
	}
	// Uniformity sanity for the float path device models draw from.
	r := NewDerivedRand(7, 5)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		sum += r.Float64()
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Fatalf("Float64 mean %v off uniform", mean)
	}
}
