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

// parCity is a built tile city, ready to run once. Its begin, end and
// barrier methods are the TileGroup hooks; the fields below the group are
// what the barrier accumulates over a run.
type parCity struct {
	cfg   ParallelCityConfig
	env   *parEnv
	grid  *geo.TileGrid
	group *simtime.TileGroup

	stats            ParallelCityStats
	deliveries, late int
	digest           *trace.Digest
	traceBufs        [][]trace.Keyed
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
	rrcCfg := rrc.DefaultConfig()
	ueRules := &device.UERules{Match: matching.DefaultConfig(), DisableD2D: cfg.DisableD2D}
	env := &parEnv{
		radio:     radio.WiFiDirectProfile().Ranged(),
		model:     energy.DefaultModel(),
		numRelays: len(pop.relays),
		orderOf:   make(map[hbmsg.DeviceID]int, n),
		tracker:   presence.NewTracker(),
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
	env.mergeNext = make([]int, len(env.tiles))
	env.mergeHeads = make([]time.Duration, len(env.tiles))
	env.devices = make([]*pdevice, 0, n)
	env.snap = make([]parSnap, n)
	env.next = make([]parSnap, n)
	env.timers = make([]*presence.Timer, n)

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
			d.relay, err = device.NewRelayOn(d.clock(), d, device.Cellular{Uplink: d}, device.RelayConfig{
				ID: spec.ID, Profile: spec.Profile, Capacity: spec.Capacity,
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
				ID: spec.ID, Apps: spec.Apps, Rules: ueRules,
				StartOffset: spec.StartOffset, Tracer: d.tracer,
			})
		}
		if err == nil {
			err = d.ue.Start()
		}
		if err != nil {
			return nil, err
		}
	}
	return &parCity{
		cfg: cfg, env: env, grid: grid, group: group,
		stats: ParallelCityStats{Tiles: grid.Tiles()}, digest: trace.NewDigest(),
	}, nil
}

// window is the lookahead window the run uses.
func (c *parCity) window() time.Duration {
	w := c.cfg.Window
	if w == 0 {
		w = DefaultParallelWindow
	}
	return min(w, c.cfg.Duration)
}

// run drives the city to its horizon and assembles the report.
func (c *parCity) run() (*core.Report, ParallelCityStats, error) {
	cfg, env := c.cfg, c.env
	if err := c.group.Run(cfg.Duration, c.window(), c.begin, c.end, c.barrier); err != nil {
		return nil, ParallelCityStats{}, err
	}

	devs := make([]*core.DeviceReport, 0, len(env.devices))
	totalL3 := 0
	// UEs whose counters are equal share one record (see
	// core.DeviceReport.UE): the report is what a caller keeps, and at city
	// scale most UEs did exactly what some other UE did — 226 distinct
	// records among 9 000 UEs after 40 minutes, a quarter of the report's
	// bytes.
	ueStats := make(map[device.UEStats]*device.UEStats)
	for _, d := range env.devices {
		role := d2d.RoleUE
		if d.relay != nil {
			role = d2d.RoleRelay
		}
		dr := core.NewDeviceReport(d.id, role, d.ledger, d.rrc.Counters(), env.tracker, cfg.Duration, d.relay, d.ue)
		if dr.UE != nil {
			if shared, ok := ueStats[*dr.UE]; ok {
				dr.UE = shared
			} else {
				ueStats[*dr.UE] = dr.UE
			}
		}
		totalL3 += dr.RRC.L3Messages
		devs = append(devs, dr)
	}
	rep := core.NewReport(cfg.Duration, devs, totalL3, c.deliveries, c.late, cellular.ChannelReport{})
	stats := c.stats
	stats.CityStats = newCityStats(cfg.CityConfig, rep, c.group.Fired())
	for _, tl := range env.tiles {
		stats.PositionSamples += tl.positionSamples
		stats.LegRefreshes += tl.legRefreshes
		stats.ScanCandidates += tl.scanCandidates
	}
	if env.traceOn {
		sum, err := c.digest.Sum()
		if err != nil {
			return nil, ParallelCityStats{}, fmt.Errorf("experiments: trace digest: %w", err)
		}
		stats.TraceDigest = sum
		stats.TraceEvents = c.digest.Events()
	}
	return rep, stats, nil
}

// begin opens a tile's window on its worker: the devices the barrier routed
// here come onto the tile's scheduler first, then the ops routed here land,
// in their canonical order — so an op for a device that has just arrived
// finds it attached.
func (c *parCity) begin(tile int, _ time.Duration) error {
	env, tl := c.env, c.env.tiles[tile]
	for _, d := range tl.arrivals {
		d.tileIdx = len(tl.sampled)
		tl.sampled = append(tl.sampled, d)
		if err := d.agenda.Attach(tl.sched); err != nil {
			return fmt.Errorf("experiments: migrate %s: %w", d.id, err)
		}
	}
	tl.arrivals = tl.arrivals[:0]
	sortOps(tl.inOps)
	for i := range tl.inOps {
		env.devices[tl.inOps[i].dst].applyOp(&tl.inOps[i])
	}
	tl.inOps = tl.inOps[:0]
	return nil
}

// end closes a tile's window on its worker. It puts the window's delivery
// log in canonical order for the barrier's merge and, unless the run is
// over, samples and re-bins: a boundary costs what can have changed, so
// only the tile's movers and relays are sampled and only movers are
// re-binned. A device that has left the tile is taken off it here — list,
// scheduler and d.tile — and the barrier only hands it to its new tile.
func (c *parCity) end(tile int, boundary time.Duration) error {
	env, tl := c.env, c.env.tiles[tile]
	sortDeliveries(tl.deliveries)
	if boundary >= c.cfg.Duration {
		// The final barrier publishes no snapshot and migrates nobody:
		// there is no window left to read either.
		return nil
	}
	for _, d := range tl.sampled {
		s := parSnap{pos: d.posAt(boundary)}
		if d.relay != nil {
			s.free, s.intent = d.relay.Advertised()
			s.accepting = d.beaconing
		}
		env.next[d.order] = s
		if d.moves {
			if to := c.grid.TileOf(s.pos); to != tile {
				d.tile = to
				tl.migrants = append(tl.migrants, d)
			}
		}
	}
	tl.positionSamples += len(tl.sampled)
	for _, d := range tl.migrants {
		last := len(tl.sampled) - 1
		moved := tl.sampled[last]
		tl.sampled[d.tileIdx] = moved
		moved.tileIdx = d.tileIdx
		tl.sampled = tl.sampled[:last]
		d.agenda.Detach()
	}
	return nil
}

// barrier runs alone on the driver between windows and does what is global:
// it merges the tiles' delivery logs into the presence timers, merges the
// trace, publishes the snapshot, routes migrants and ops to the tiles that
// will run them, and rebuilds the beacon index. Anything a tile can do to
// its own lists — sorting them, taking a device off a scheduler or putting
// one on — is done by that tile's worker in end and begin.
func (c *parCity) barrier(boundary time.Duration, final bool) error {
	env := c.env
	c.stats.Windows++
	// Within one window instants only grow, so every timer sees a monotone
	// stream exactly as in the sequential kernel.
	err := env.mergeDeliveries(func(del *parDelivery) error {
		c.deliveries++
		if !del.onTime {
			c.late++
		}
		if err := env.timer(del.srcOrder).Deliver(del.at, del.expiry); err != nil {
			return fmt.Errorf("experiments: presence: %w (client %s)", err, env.devices[del.srcOrder].id)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if env.traceOn {
		c.traceBufs = c.traceBufs[:0]
		for _, tl := range env.tiles {
			c.traceBufs = append(c.traceBufs, tl.events)
		}
		merged := trace.MergeKeyed(c.traceBufs...)
		c.digest.Add(merged)
		if c.cfg.Tracer != nil {
			for i := range merged {
				c.cfg.Tracer.Emit(merged[i].Ev)
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
	// The end hooks have already set every migrant's d.tile, so an op's
	// destination tile is where the device will spend the next window.
	for _, tl := range env.tiles {
		for _, d := range tl.migrants {
			to := env.tiles[d.tile]
			to.arrivals = append(to.arrivals, d)
		}
		c.stats.Migrations += len(tl.migrants)
		tl.migrants = tl.migrants[:0]
	}
	c.stats.CrossTileOps += env.routeOps()
	env.rebuildBeacons()
	return nil
}

// sortDeliveries puts one tile's delivery log in canonical order. The log
// is in the tile's execution order, which differs from it only where two
// devices transmit at the same instant.
func sortDeliveries(ds []parDelivery) { slices.SortFunc(ds, compareDeliveries) }

func compareDeliveries(a, b parDelivery) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.viaOrder, b.viaOrder), cmp.Compare(a.viaSeq, b.viaSeq))
}

// mergeDeliveries hands fn every tile's deliveries of the closed window in
// canonical (at, via, viaSeq) order — each tile's log is already sorted —
// and empties the logs. The key is unique, so the merge is the sort of the
// concatenation whatever the partition. The instants at the head of each
// log sit side by side in one array: picking the next delivery is a scan of
// that array, and the logs themselves are compared only on a tie.
func (env *parEnv) mergeDeliveries(fn func(*parDelivery) error) error {
	const drained = time.Duration(math.MaxInt64)
	next, heads := env.mergeNext, env.mergeHeads
	for i, tl := range env.tiles {
		next[i], heads[i] = 0, drained
		if len(tl.deliveries) > 0 {
			heads[i] = tl.deliveries[0].at
		}
	}
	for {
		from := 0
		for i := 1; i < len(heads); i++ {
			if heads[i] < heads[from] || heads[i] == heads[from] && heads[i] != drained &&
				compareDeliveries(env.tiles[i].deliveries[next[i]], env.tiles[from].deliveries[next[from]]) < 0 {
				from = i
			}
		}
		if heads[from] == drained {
			break
		}
		log := env.tiles[from].deliveries
		del := &log[next[from]]
		next[from]++
		heads[from] = drained
		if next[from] < len(log) {
			heads[from] = log[next[from]].at
		}
		if err := fn(del); err != nil {
			return err
		}
	}
	for _, tl := range env.tiles {
		tl.deliveries = tl.deliveries[:0]
	}
	return nil
}

// sortOps puts a tile's inbound ops in the canonical order they are applied
// in.
func sortOps(ops []parOp) {
	slices.SortFunc(ops, func(a, b parOp) int {
		return cmp.Or(cmp.Compare(a.createdAt, b.createdAt), cmp.Compare(a.src, b.src), cmp.Compare(a.srcSeq, b.srcSeq))
	})
}

// routeOps moves every op queued in the closed window to the tile its
// destination device will spend the next window on, and returns how many
// there were. Each tile sorts what it received in its begin hook: the order
// is total, so that is the globally sorted sequence split per tile.
func (env *parEnv) routeOps() int {
	n := 0
	for _, tl := range env.tiles {
		for i := range tl.outOps {
			to := env.tiles[env.devices[tl.outOps[i].dst].tile]
			to.inOps = append(to.inOps, tl.outOps[i])
		}
		n += len(tl.outOps)
		tl.outOps = tl.outOps[:0]
	}
	return n
}

// timer is the presence timer of the device with the given population
// order, looked up in the tracker the first time the device is heard from.
func (env *parEnv) timer(order int) *presence.Timer {
	t := env.timers[order]
	if t == nil {
		t = env.tracker.Timer(env.devices[order].id)
		env.timers[order] = t
	}
	return t
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
