package experiments

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"d2dhb/internal/cellular"
	"d2dhb/internal/core"
	"d2dhb/internal/d2d"
	"d2dhb/internal/device"
	"d2dhb/internal/energy"
	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/matching"
	"d2dhb/internal/presence"
	"d2dhb/internal/radio"
	"d2dhb/internal/rrc"
	"d2dhb/internal/simtime"
	"d2dhb/internal/trace"
)

// ParallelCityConfig parameterizes the tile-sharded city kernel. The
// population, area and traffic rules are exactly CityConfig's; Tiles and
// Window control the parallel substrate. For a given Seed the run is
// bit-identical — report digest and trace digest — for any Tiles value,
// because Tiles only changes how the same windowed computation is
// partitioned, never what it computes.
type ParallelCityConfig struct {
	CityConfig
	// Tiles is the number of spatial shards (1 = the same windowed model
	// on a single worker). NewTileGrid factors it into a grid.
	Tiles int
	// Window is the lookahead window W; cross-device effects land at the
	// next multiple of W. Zero selects DefaultParallelWindow.
	Window time.Duration
	// CaptureTrace records every trace event into the canonical per-window
	// merge and the run's trace digest. Off by default: the big presets
	// skip the capture cost.
	CaptureTrace bool
	// Tracer, when non-nil, receives the canonically merged event stream
	// (and implies capture).
	Tracer trace.Tracer
}

// DefaultParallelWindow is the default lookahead window. Heartbeat periods
// are minutes and expiries hundreds of seconds, so a 10 s forwarding
// latency is well inside every deadline while leaving tiles long
// uninterrupted runs.
const DefaultParallelWindow = 10 * time.Second

// CityParallelShort is the CI preset: CityShort on the given tile count.
func CityParallelShort(tiles int) ParallelCityConfig {
	return ParallelCityConfig{CityConfig: CityShort(), Tiles: tiles}
}

// CityParallelDay is the headline run: a 10k-device day on the given tile
// count.
func CityParallelDay(tiles int) ParallelCityConfig {
	return ParallelCityConfig{CityConfig: CityDay(), Tiles: tiles}
}

// CityParallel100kDay scales the day run to 100k devices, keeping the
// density of one device per 100 m².
func CityParallel100kDay(tiles int) ParallelCityConfig {
	cfg := CityParallelDay(tiles)
	cfg.Devices = 100_000
	cfg.Side = math.Round(math.Sqrt(float64(cfg.Devices) * 100))
	return cfg
}

// CityParallelMillion is the 1M-device smoke preset: two heartbeat periods
// at city density. It exists to prove the kernel's memory shape holds at
// 1M devices, not to be fast; tests gate it behind D2D_CITY_1M=1.
func CityParallelMillion(tiles int) ParallelCityConfig {
	cfg := CityParallelShort(tiles)
	cfg.Devices = 1_000_000
	cfg.Side = math.Round(math.Sqrt(float64(cfg.Devices) * 100))
	cfg.Duration = stdProfile().Period + 30*time.Second
	return cfg
}

func (c ParallelCityConfig) validate() error {
	if err := c.CityConfig.validate(); err != nil {
		return err
	}
	if c.Tiles < 1 {
		return fmt.Errorf("experiments: parallel city tiles must be >= 1, got %d", c.Tiles)
	}
	if c.Window < 0 {
		return fmt.Errorf("experiments: parallel city window must be non-negative, got %v", c.Window)
	}
	return nil
}

// ParallelCityStats extends CityStats with the parallel kernel's own
// observables.
type ParallelCityStats struct {
	CityStats
	Tiles   int
	Windows int
	// Migrations counts device moves between tiles at window boundaries.
	Migrations int
	// CrossTileOps counts boundary operations routed between devices
	// (including same-tile ones — every D2D effect is a boundary op).
	CrossTileOps int
	// PositionSamples, LegRefreshes and ScanCandidates count the kernel's
	// work rather than time it: boundary snapshot entries written (movers
	// and relays, once per published boundary), walker legs fetched because
	// the cached one had ended, and beacons the index handed to Scan before
	// any range test. All three depend on the run only, not on Tiles.
	PositionSamples int
	LegRefreshes    int
	ScanCandidates  int
	// TraceDigest is the canonical trace digest (empty unless captured).
	TraceDigest string
	TraceEvents int
}

// RunCityParallel builds and runs the tile-sharded city, returning a
// report with the same shape (and digest format) as the sequential
// kernel's plus the parallel stats.
func RunCityParallel(cfg ParallelCityConfig) (*core.Report, ParallelCityStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, ParallelCityStats{}, err
	}
	pop, err := buildCityPopulation(cfg.CityConfig, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, ParallelCityStats{}, err
	}
	c, err := newParCity(cfg, pop)
	if err != nil {
		return nil, ParallelCityStats{}, err
	}
	return c.run()
}

// parCity is a built tile city, ready to run once.
type parCity struct {
	cfg   ParallelCityConfig
	env   *parEnv
	grid  *geo.TileGrid
	group *simtime.TileGroup
}

// newParCity places the roster on its tiles and starts every device's
// state machine on its own agenda.
func newParCity(cfg ParallelCityConfig, pop cityPopulation) (*parCity, error) {
	grid, err := geo.NewTileGrid(geo.Square(cfg.Side), cfg.Tiles)
	if err != nil {
		return nil, err
	}
	group, err := simtime.NewTileGroup(cfg.Seed, grid.Tiles())
	if err != nil {
		return nil, err
	}

	n := len(pop.relays) + len(pop.ues)
	profile, rrcCfg := stdProfile(), rrc.DefaultConfig()
	env := &parEnv{
		radio:     radio.WiFiDirectProfile(),
		model:     energy.DefaultModel(),
		numRelays: len(pop.relays),
		orderOf:   make(map[hbmsg.DeviceID]int, n),
		traceOn:   cfg.CaptureTrace || cfg.Tracer != nil,
	}
	env.beacons, err = d2d.NewBeaconIndex(env.radio.MaxRange())
	if err != nil {
		return nil, err
	}
	env.tiles = make([]*parTile, grid.Tiles())
	for i := range env.tiles {
		env.tiles[i] = &parTile{sched: group.Scheduler(i)}
	}
	env.devices = make([]*pdevice, 0, n)
	env.snap = make([]parSnap, n)
	env.next = make([]parSnap, n)

	// addDevice places one device on its tile and builds the windowed
	// substrate it will run on. Everything time-driven — the state machine
	// and the RRC machine alike — sits on the device's agenda, so it
	// migrates with the device.
	addDevice := func(id hbmsg.DeviceID, mob geo.Mobility, relay bool) (*pdevice, error) {
		d := &pdevice{env: env, id: id, order: len(env.devices), mob: mob, tileIdx: -1}
		env.devices = append(env.devices, d)
		env.orderOf[id] = d.order
		if w, ok := mob.(*geo.RandomWaypoint); ok {
			d.walker, d.leg = w, w.LegAt(0)
		}
		sl, bounded := mob.(geo.SpeedLimited)
		d.moves = !bounded || sl.MaxSpeed() > 0
		// Both buffers: a device that is not sampled never writes either
		// again (see parEnv.snap).
		p := d.posAt(0)
		env.snap[d.order].pos, env.next[d.order].pos = p, p
		d.tile = grid.TileOf(p)
		tl := env.tiles[d.tile]
		if d.moves || relay {
			d.tileIdx = len(tl.sampled)
			tl.sampled = append(tl.sampled, d)
		}
		d.agenda = simtime.NewAgenda(tl.sched)
		d.rng = simtime.NewDerivedRand(cfg.Seed, int64(d.order))
		d.ledger = energy.NewLedger()
		if env.traceOn {
			d.tracer = d
		}
		var err error
		d.rrc, err = rrc.NewMachineOn(d.clock(), rrcCfg)
		return d, err
	}
	for i := range pop.relays {
		spec := &pop.relays[i]
		d, err := addDevice(spec.ID, spec.Mobility, true)
		if err == nil {
			d.relay, err = device.NewRelayOn(d.clock(), d, d, device.RelayConfig{
				ID: spec.ID, Profile: profile, Capacity: spec.Capacity,
				StartOffset: spec.StartOffset, Tracer: d.tracer,
			})
		}
		if err == nil {
			err = d.relay.Start()
		}
		if err != nil {
			return nil, err
		}
	}
	for i := range pop.ues {
		spec := &pop.ues[i]
		d, err := addDevice(spec.ID, spec.Mobility, false)
		if err == nil {
			d.ue, err = device.NewUEOn(d.clock(), d, d, device.UEConfig{
				ID: spec.ID, Profile: profile, Match: matching.DefaultConfig(),
				StartOffset: spec.StartOffset, DisableD2D: cfg.DisableD2D, Tracer: d.tracer,
			})
		}
		if err == nil {
			err = d.ue.Start()
		}
		if err != nil {
			return nil, err
		}
	}
	return &parCity{cfg: cfg, env: env, grid: grid, group: group}, nil
}

// run drives the city to its horizon and assembles the report.
func (c *parCity) run() (*core.Report, ParallelCityStats, error) {
	cfg, env, grid := c.cfg, c.env, c.grid
	window := cfg.Window
	if window == 0 {
		window = DefaultParallelWindow
	}
	if window > cfg.Duration {
		window = cfg.Duration
	}

	tracker := presence.NewTracker()
	digest := trace.NewDigest()
	stats := ParallelCityStats{Tiles: grid.Tiles()}
	var deliveries, late int
	var deliveryBuf []parDelivery
	var opBuf []parOp
	var traceBufs [][]trace.Keyed

	begin := func(tile int, _ time.Duration) error {
		tl := env.tiles[tile]
		for i := range tl.inOps {
			env.devices[tl.inOps[i].dst].applyOp(&tl.inOps[i])
		}
		tl.inOps = tl.inOps[:0]
		return nil
	}
	// A boundary costs what can have changed: only the tile's movers and
	// relays are sampled, and only movers are re-binned.
	end := func(tile int, boundary time.Duration) error {
		if boundary >= cfg.Duration {
			// The final barrier publishes no snapshot and migrates nobody:
			// there is no window left to read either.
			return nil
		}
		tl := env.tiles[tile]
		for _, d := range tl.sampled {
			s := parSnap{pos: d.posAt(boundary)}
			if d.relay != nil {
				s.free, s.intent = d.relay.Advertised()
				s.accepting = d.beaconing
			}
			env.next[d.order] = s
			if d.moves && grid.TileOf(s.pos) != d.tile {
				tl.migrants = append(tl.migrants, d)
			}
		}
		tl.positionSamples += len(tl.sampled)
		return nil
	}
	barrier := func(boundary time.Duration, final bool) error {
		stats.Windows++
		// Network-side deliveries: merge this window's per-tile logs in
		// canonical (at, via, viaSeq) order and feed the presence tracker.
		// Within one window instants only grow, so the tracker sees a
		// monotone stream exactly as in the sequential kernel.
		deliveryBuf = deliveryBuf[:0]
		for _, tl := range env.tiles {
			deliveryBuf = append(deliveryBuf, tl.deliveries...)
			tl.deliveries = tl.deliveries[:0]
		}
		slices.SortFunc(deliveryBuf, func(a, b parDelivery) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.viaOrder, b.viaOrder), cmp.Compare(a.viaSeq, b.viaSeq))
		})
		for i := range deliveryBuf {
			del := &deliveryBuf[i]
			deliveries++
			if !del.onTime {
				late++
			}
			if err := tracker.Deliver(del.hb, del.at); err != nil {
				return fmt.Errorf("experiments: presence: %w", err)
			}
		}
		if env.traceOn {
			traceBufs = traceBufs[:0]
			for _, tl := range env.tiles {
				traceBufs = append(traceBufs, tl.events)
			}
			merged := trace.MergeKeyed(traceBufs...)
			digest.Add(merged)
			if cfg.Tracer != nil {
				for i := range merged {
					cfg.Tracer.Emit(merged[i].Ev)
				}
			}
			for _, tl := range env.tiles {
				tl.events = tl.events[:0]
			}
		}
		if final {
			// Ops queued in the final window would land beyond the horizon;
			// they are cut, exactly as the sequential kernel leaves queued
			// timers unfired at the horizon.
			return nil
		}
		// Publish the boundary snapshot the end hooks just wrote.
		env.snap, env.next = env.next, env.snap
		// Migrations before op routing: an op's destination tile is where
		// the device will spend the next window.
		for _, tl := range env.tiles {
			for _, d := range tl.migrants {
				if err := env.migrate(d, grid.TileOf(env.snap[d.order].pos)); err != nil {
					return err
				}
				stats.Migrations++
			}
			tl.migrants = tl.migrants[:0]
		}
		// Route boundary ops in their global canonical order, split per
		// destination tile; each tile applies its slice in order at the
		// start of the next window.
		opBuf = opBuf[:0]
		for _, tl := range env.tiles {
			opBuf = append(opBuf, tl.outOps...)
			tl.outOps = tl.outOps[:0]
		}
		slices.SortFunc(opBuf, func(a, b parOp) int {
			return cmp.Or(cmp.Compare(a.createdAt, b.createdAt), cmp.Compare(a.src, b.src), cmp.Compare(a.srcSeq, b.srcSeq))
		})
		for i := range opBuf {
			tl := env.tiles[env.devices[opBuf[i].dst].tile]
			tl.inOps = append(tl.inOps, opBuf[i])
		}
		stats.CrossTileOps += len(opBuf)
		env.rebuildBeacons()
		return nil
	}

	if err := c.group.Run(cfg.Duration, window, begin, end, barrier); err != nil {
		return nil, ParallelCityStats{}, err
	}

	devs := make([]*core.DeviceReport, 0, len(env.devices))
	totalL3 := 0
	for _, d := range env.devices {
		role := d2d.RoleUE
		if d.relay != nil {
			role = d2d.RoleRelay
		}
		dr := core.NewDeviceReport(d.id, role, d.ledger, d.rrc.Counters(), tracker, cfg.Duration, d.relay, d.ue)
		totalL3 += dr.RRC.L3Messages
		devs = append(devs, dr)
	}
	rep := core.NewReport(cfg.Duration, devs, totalL3, deliveries, late, cellular.ChannelReport{})
	stats.CityStats = newCityStats(cfg.CityConfig, rep, c.group.Fired())
	for _, tl := range env.tiles {
		stats.PositionSamples += tl.positionSamples
		stats.LegRefreshes += tl.legRefreshes
		stats.ScanCandidates += tl.scanCandidates
	}
	if env.traceOn {
		sum, err := digest.Sum()
		if err != nil {
			return nil, ParallelCityStats{}, fmt.Errorf("experiments: trace digest: %w", err)
		}
		stats.TraceDigest = sum
		stats.TraceEvents = digest.Events()
	}
	return rep, stats, nil
}

// migrate moves a device (and its agenda) to a new tile at a window
// boundary. Runs on the barrier goroutine only.
func (env *parEnv) migrate(d *pdevice, newTile int) error {
	old := env.tiles[d.tile]
	last := len(old.sampled) - 1
	moved := old.sampled[last]
	old.sampled[d.tileIdx] = moved
	moved.tileIdx = d.tileIdx
	old.sampled = old.sampled[:last]

	nt := env.tiles[newTile]
	d.tile = newTile
	d.tileIdx = len(nt.sampled)
	nt.sampled = append(nt.sampled, d)
	if err := d.agenda.Rehome(nt.sched); err != nil {
		return fmt.Errorf("experiments: migrate %s: %w", d.id, err)
	}
	return nil
}

// rebuildBeacons refreshes the discovery snapshot from the just-sampled
// advertised state, in population order.
func (env *parEnv) rebuildBeacons() {
	env.beaconBuf = env.beaconBuf[:0]
	for order := 0; order < env.numRelays; order++ {
		s := &env.snap[order]
		if !s.accepting {
			continue
		}
		env.beaconBuf = append(env.beaconBuf, d2d.Beacon{
			ID:           env.devices[order].id,
			Order:        order,
			Pos:          s.pos,
			Accepting:    true,
			FreeCapacity: s.free,
			Intent:       s.intent,
		})
	}
	env.beacons.Rebuild(env.beaconBuf)
}
