package experiments

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"d2dhb/internal/core"
	"d2dhb/internal/energy"
	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/simtime"
)

// These tests pin the split of boundary work between the tiles' workers
// and the barrier: what each tile sorts on its own and the barrier then
// routes or merges must be exactly what one global sort produced before.
// Every comparator below is written out again on the full key, so dropping
// a component from the kernel's (viaSeq from compareDeliveries, srcSeq from
// sortOps) leaves shuffled ties unsorted and fails the comparison.

// tiedInstants are few enough that most records share theirs with another.
var tiedInstants = []time.Duration{0, time.Second, 2 * time.Second, 3 * time.Second}

// TestDeliveryMergeEqualsGlobalSort: per-tile logs sorted by the end hook
// and merged by the barrier equal slices.SortFunc over the concatenation,
// with ties on the instant across tiles and on (instant, via) within one.
func TestDeliveryMergeEqualsGlobalSort(t *testing.T) {
	for trial := int64(0); trial < 200; trial++ {
		rng := rand.New(rand.NewSource(trial))
		tiles := 1 + rng.Intn(16)
		env := &parEnv{
			tiles:      make([]*parTile, tiles),
			mergeNext:  make([]int, tiles),
			mergeHeads: make([]time.Duration, tiles),
		}
		for i := range env.tiles {
			env.tiles[i] = &parTile{}
		}
		var all []parDelivery
		viaSeq := make(map[int]uint64)
		for n := rng.Intn(120); n > 0; n-- {
			via := rng.Intn(6)
			// A device transmits from one tile per window.
			tl := env.tiles[via%tiles]
			del := parDelivery{
				at: tiedInstants[rng.Intn(len(tiedInstants))], viaOrder: via, viaSeq: viaSeq[via],
				srcOrder: rng.Intn(50), expiry: time.Duration(rng.Intn(300)) * time.Second, onTime: rng.Intn(2) == 0,
			}
			viaSeq[via]++
			tl.deliveries = append(tl.deliveries, del)
			all = append(all, del)
		}
		slices.SortFunc(all, func(a, b parDelivery) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.viaOrder, b.viaOrder), cmp.Compare(a.viaSeq, b.viaSeq))
		})

		for _, tl := range env.tiles {
			rng.Shuffle(len(tl.deliveries), func(i, j int) {
				tl.deliveries[i], tl.deliveries[j] = tl.deliveries[j], tl.deliveries[i]
			})
			sortDeliveries(tl.deliveries)
		}
		var merged []parDelivery
		if err := env.mergeDeliveries(func(del *parDelivery) error {
			merged = append(merged, *del)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(merged, all) {
			t.Fatalf("trial %d (%d tiles): merged\n%v\nglobal sort\n%v", trial, tiles, merged, all)
		}
		for i, tl := range env.tiles {
			if len(tl.deliveries) != 0 {
				t.Fatalf("trial %d: tile %d keeps %d deliveries after the merge", trial, i, len(tl.deliveries))
			}
		}
	}
}

// TestOpRoutingEqualsGlobalSortThenSplit: ops routed tile to tile by the
// barrier and sorted by each destination's begin hook are the parent
// kernel's sequence — every tile's ops in one global sort, then split by
// destination tile.
func TestOpRoutingEqualsGlobalSortThenSplit(t *testing.T) {
	for trial := int64(0); trial < 200; trial++ {
		rng := rand.New(rand.NewSource(trial))
		tiles, devices := 1+rng.Intn(16), 40
		env := &parEnv{tiles: make([]*parTile, tiles), devices: make([]*pdevice, devices)}
		for i := range env.tiles {
			env.tiles[i] = &parTile{}
		}
		for i := range env.devices {
			env.devices[i] = &pdevice{tile: rng.Intn(tiles)}
		}
		var all []parOp
		srcSeq := make(map[int]uint64)
		for n := rng.Intn(150); n > 0; n-- {
			src := rng.Intn(8)
			op := parOp{
				createdAt: tiedInstants[rng.Intn(len(tiedInstants))], src: src, srcSeq: srcSeq[src],
				dst: rng.Intn(devices), kind: opKind(1 + rng.Intn(3)), charge: energy.MicroAmpHours(rng.Intn(9)),
			}
			srcSeq[src]++
			from := env.tiles[rng.Intn(tiles)]
			from.outOps = append(from.outOps, op)
			all = append(all, op)
		}
		slices.SortFunc(all, func(a, b parOp) int {
			return cmp.Or(cmp.Compare(a.createdAt, b.createdAt), cmp.Compare(a.src, b.src), cmp.Compare(a.srcSeq, b.srcSeq))
		})
		want := make([][]parOp, tiles)
		for _, op := range all {
			to := env.devices[op.dst].tile
			want[to] = append(want[to], op)
		}

		if n := env.routeOps(); n != len(all) {
			t.Fatalf("trial %d: routed %d ops of %d", trial, n, len(all))
		}
		for i, tl := range env.tiles {
			if len(tl.outOps) != 0 {
				t.Fatalf("trial %d: tile %d keeps %d outbound ops", trial, i, len(tl.outOps))
			}
			sortOps(tl.inOps)
			if !slices.Equal(tl.inOps, want[i]) {
				t.Fatalf("trial %d tile %d: applies\n%v\nglobal sort then split\n%v", trial, i, tl.inOps, want[i])
			}
		}
	}
}

// lineWalk moves at a constant velocity from a starting point; it claims no
// speed bound, so the kernel treats it as a mover.
type lineWalk struct {
	from   geo.Point
	vx, vy float64 // metres per second
}

func (l lineWalk) Pos(at time.Duration) geo.Point {
	return geo.Point{X: l.from.X + l.vx*at.Seconds(), Y: l.from.Y + l.vy*at.Seconds()}
}

// runTileTo is TileGroup's window loop for one tile, without the hooks.
func runTileTo(t *testing.T, s *simtime.Scheduler, boundary time.Duration) {
	t.Helper()
	for {
		at, ok := s.NextAt()
		if !ok || at >= boundary {
			break
		}
		s.Step()
	}
	if err := s.AdvanceTo(boundary); err != nil {
		t.Fatal(err)
	}
}

// TestOpFollowsMigrantToItsNewTile drives one boundary by hand. A relay
// crosses from tile 0 to tile 1 during the window in which a UE forwards a
// heartbeat to it. The old tile's end hook must take the relay off its
// scheduler and re-label it, the barrier must route both the relay and the
// op to tile 1 — not to the tile the op was aimed at when it was queued —
// and tile 1's begin hook must attach the relay before it applies the op:
// collecting the heartbeat arms the relay's flush timer, which a detached
// agenda refuses — the relay would flush on the spot, and fail at that.
func TestOpFollowsMigrantToItsNewTile(t *testing.T) {
	const window = 10 * time.Second
	profile := stdProfile()
	pop := cityPopulation{
		relays: []core.RelaySpec{{
			ID: "relay-mover", Profile: profile, Capacity: 4, StartOffset: time.Second,
			// x = 45 + t: over the border between tiles 0 and 1 (x = 50) at 5 s.
			Mobility: lineWalk{from: geo.Point{X: 45, Y: 25}, vx: 1},
		}},
		ues: []core.UESpec{{
			ID: "ue-still", Apps: []hbmsg.AppProfile{profile}, Mobility: geo.Static{P: geo.Point{X: 40, Y: 25}},
			StartOffset: 5 * window, // silent for as long as the test looks
		}},
	}
	cfg := ParallelCityConfig{
		CityConfig: CityConfig{Seed: 1, Devices: 2, RelayFraction: 0.5, Side: 100, Duration: 4 * window, Capacity: 4},
		Tiles:      4, Window: window,
	}
	c, err := newParCity(cfg, pop)
	if err != nil {
		t.Fatal(err)
	}
	env := c.env
	relay, ue := env.devices[0], env.devices[1]
	if relay.tile != 0 || ue.tile != 0 {
		t.Fatalf("relay on tile %d, UE on tile %d; want both on tile 0", relay.tile, ue.tile)
	}

	// The window: the relay opens its collection period at 1 s; at 5 s the
	// UE's link would queue this forward (parLink.Send), aimed at tile 0.
	for tile := range env.tiles {
		runTileTo(t, c.group.Scheduler(tile), window)
	}
	hb := profile.Heartbeat(ue.id, 1, 5*time.Second)
	env.tiles[0].outOps = append(env.tiles[0].outOps, parOp{
		createdAt: 5 * time.Second, src: ue.order, dst: relay.order, kind: opForward, hb: hb, charge: 3,
	})

	for tile := range env.tiles {
		if err := c.end(tile, window); err != nil {
			t.Fatal(err)
		}
	}
	if relay.tile != 1 || relay.agenda.Scheduler() != nil {
		t.Fatalf("after the end hooks the relay is labelled tile %d on scheduler %p; want tile 1, detached",
			relay.tile, relay.agenda.Scheduler())
	}
	// What is left on tile 0 is the UE's first heartbeat.
	if got := c.group.Scheduler(0).Pending(); got != 1 {
		t.Fatalf("tile 0's scheduler holds %d timers, want the UE's alone", got)
	}
	if slices.Contains(env.tiles[0].sampled, relay) {
		t.Fatal("tile 0 still samples the relay")
	}
	if err := c.barrier(window, false); err != nil {
		t.Fatal(err)
	}
	if c.stats.Migrations != 1 || c.stats.CrossTileOps != 1 {
		t.Fatalf("barrier counted %d migrations and %d ops, want 1 and 1", c.stats.Migrations, c.stats.CrossTileOps)
	}
	if len(env.tiles[0].inOps) != 0 || len(env.tiles[1].inOps) != 1 || !slices.Contains(env.tiles[1].arrivals, relay) {
		t.Fatalf("barrier left %d ops on tile 0, %d on tile 1, arrivals %v; want the op and the relay on tile 1",
			len(env.tiles[0].inOps), len(env.tiles[1].inOps), env.tiles[1].arrivals)
	}

	if err := c.begin(1, window); err != nil {
		t.Fatal(err)
	}
	tl := env.tiles[1]
	if relay.agenda.Scheduler() != tl.sched {
		t.Fatal("tile 1's begin hook did not attach the relay's agenda")
	}
	if relay.tileIdx < 0 || relay.tileIdx >= len(tl.sampled) || tl.sampled[relay.tileIdx] != relay {
		t.Fatalf("relay at index %d of tile 1's sampled list %v", relay.tileIdx, tl.sampled)
	}
	if st := relay.relay.Stats(); st.Collected != 1 || st.Flushes != 0 || st.SendErrors != 0 || relay.relay.Policy().Pending() != 1 {
		t.Fatalf("relay collected %d, flushed %d times with %d send errors and holds %d; want the heartbeat held for the flush timer",
			st.Collected, st.Flushes, st.SendErrors, relay.relay.Policy().Pending())
	}
	if len(tl.deliveries) != 0 || len(tl.inOps) != 0 || len(tl.arrivals) != 0 {
		t.Fatalf("tile 1 after begin: %d deliveries, %d ops, %d arrivals; want none", len(tl.deliveries), len(tl.inOps), len(tl.arrivals))
	}
	if charged := relay.ledger.Phase(energy.PhaseD2DRecv); charged != 3 {
		t.Fatalf("relay charged %v for the receive, want the op's 3", charged)
	}
}
