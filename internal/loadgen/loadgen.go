// Package loadgen is an open-loop load-generation and capacity-measurement
// harness for the real heartbeat stack (internal/relaynet + internal/hbproto).
// It spawns fleets of virtual UEs and relay agents over loopback TCP against
// a presence server, shapes fleet activation with an arrival schedule
// (steady, ramp, spike), records per-heartbeat ack latency into lock-free
// sharded histograms, and renders periodic and final reports as both a human
// table (internal/metrics) and JSON.
package loadgen

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/faultnet"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/rec"
	"d2dhb/internal/relaynet"
	"d2dhb/internal/session"
	"d2dhb/internal/telemetry"
	"d2dhb/internal/trace"
)

// Config parameterizes one load-generation run.
type Config struct {
	// UEs is the fleet size (virtual UE count).
	UEs int
	// Relays is how many real relay agents to run. Zero disables relaying.
	Relays int
	// RelayRatio is the fraction of the fleet forwarding through relays;
	// the rest heartbeat directly to the server. Ignored when Relays is 0.
	RelayRatio float64
	// Profiles is the app mix, assigned round-robin across the fleet.
	// Repeat a profile to weight it. Empty selects hbmsg.Apps().
	Profiles []hbmsg.AppProfile
	// Speedup divides every profile period/expiry so commercial multi-minute
	// heartbeat intervals compress into measurable runs. Zero means 1.
	Speedup float64
	// Duration is how long load is offered (excludes the drain phase).
	Duration time.Duration
	// Arrival shapes fleet activation.
	Arrival Schedule
	// AckTimeout is how long an unacknowledged heartbeat waits before it is
	// counted lost. Zero selects 2×max period + 500 ms (min 2 s).
	AckTimeout time.Duration
	// RelayCapacity overrides each relay's per-period collection capacity
	// M. Zero sizes it generously from the assigned fleet share.
	RelayCapacity int
	// ReportEvery emits a cumulative Report through OnReport at this
	// interval. Zero disables periodic reports.
	ReportEvery time.Duration
	// OnReport receives periodic (and not the final) reports.
	OnReport func(Report)
	// ServerAddr targets an existing presence server. Empty spawns an
	// in-process relaynet.Server on loopback, whose stats land in the
	// report.
	ServerAddr string
	// ClusterAddr targets a presence cluster through its router (base URL
	// or host:port) and reports embed a per-shard metrics scrape. Routing
	// is the same either way — a single server is a one-node ring: direct
	// UEs dial their owning shard, relays and trunks fan each batch out per
	// shard, relayed UEs fall back to their owner on ack timeout. Mutually
	// exclusive with ServerAddr.
	ClusterAddr string
	// Trunks switches the fleet to trunked virtual relays: instead of one
	// socket per UE, the fleet is multiplexed UEs/Trunks-per-connection
	// over this many relay trunks speaking hbproto batches — the paper's
	// aggregation argument applied to the load generator itself, and the
	// only way one box offers a million users (per-UE sockets exhaust
	// ephemeral ports around a few tens of thousands per destination).
	// Requires Relays == 0.
	Trunks int
	// TrunkPaceSlots spreads each trunk period's emissions across this many
	// sub-ticks instead of bursting the whole fleet at once: sub-tick s is
	// the s-th of TrunkPaceSlots equal blocks of the trunk's users by index
	// (no RNG, no wall clock), every user still emits exactly once per
	// period, and the open-loop schedule is preserved. ≤1 disables pacing
	// (the default, so existing runs and recorded corpora are
	// bit-identical). Ignored unless Trunks > 0.
	TrunkPaceSlots int
	// Tracer is attached to the spawned server and relays when non-nil.
	Tracer trace.Tracer
	// HistShards sets the latency histogram shard count. Zero selects 8.
	HistShards int
	// Faults injects the schedule's faults into every outbound dial the
	// run makes (UE→relay, UE→server and relay→server), for
	// chaos-under-load measurements. Nil disables fault injection.
	Faults *faultnet.Schedule
	// Telemetry, when non-nil, registers the run's own instruments on the
	// registry: fleet send/ack counters, per-path latency histograms, and —
	// for in-process runs — the spawned server's and relays' metrics.
	Telemetry *telemetry.Registry
	// MetricsAddr is the target server's telemetry listener (the host:port
	// passed to its -telemetry flag). When set, every report scrapes
	// /metrics.json there and embeds the server-side dump.
	MetricsAddr string
	// Recorder, when non-nil, captures the run's per-heartbeat timeline
	// (client table, fault windows, send/ack/timeout events) for later
	// deterministic replay. All hooks are nil-safe no-ops otherwise.
	Recorder *rec.Recorder
}

func (c Config) validate() error {
	if c.UEs <= 0 {
		return fmt.Errorf("loadgen: UEs must be positive, got %d", c.UEs)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: duration must be positive, got %v", c.Duration)
	}
	if c.Relays < 0 {
		return fmt.Errorf("loadgen: negative relay count %d", c.Relays)
	}
	if c.RelayRatio < 0 || c.RelayRatio > 1 {
		return fmt.Errorf("loadgen: relay ratio must be in [0,1], got %v", c.RelayRatio)
	}
	if c.Trunks < 0 {
		return fmt.Errorf("loadgen: negative trunk count %d", c.Trunks)
	}
	if c.Trunks > 0 && c.Relays > 0 {
		return fmt.Errorf("loadgen: trunks and relays are mutually exclusive (%d/%d)", c.Trunks, c.Relays)
	}
	if c.TrunkPaceSlots < 0 {
		return fmt.Errorf("loadgen: negative trunk pace slots %d", c.TrunkPaceSlots)
	}
	if c.ClusterAddr != "" && c.ServerAddr != "" {
		return fmt.Errorf("loadgen: cluster and server targets are mutually exclusive")
	}
	if c.Speedup < 0 {
		return fmt.Errorf("loadgen: negative speedup %v", c.Speedup)
	}
	for _, p := range c.Profiles {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// minVirtualPeriod floors compressed heartbeat periods so an aggressive
// speedup cannot degenerate into a busy loop.
const minVirtualPeriod = 10 * time.Millisecond

// fleetCounters is the trunks' shared accounting, updated with atomics
// from every trunk; the socket-per-UE fleet's UEs count for themselves.
type fleetCounters struct {
	sentRelayed, ackedRelayed, timeoutRelayed atomic.Uint64
	dialErrors, writeErrors                   atomic.Uint64
	outOfOrderAcks                            atomic.Uint64
	// fallbackResends counts heartbeats re-sent through the then-current
	// ring view after the first send missed the ack window.
	fallbackResends atomic.Uint64
	// trunkWrites/trunkFrames account the coalesced trunk uplink: Batch
	// frames composed vs conn.Write calls issued. frames − writes is the
	// syscall count the single-buffer flush saved.
	trunkWrites, trunkFrames atomic.Uint64
}

// loadUnit is one independently scheduled slice of the fleet: a UE, or a
// trunk multiplexing many of them over one connection. Begin anchors its
// schedule at its arrival instant and says when to step it first; the
// run's one session.Driver steps every unit until the offer ends. The
// drain then sweeps what is in flight, and Shutdown writes off the rest
// and closes the unit.
type loadUnit interface {
	session.Unit
	Begin(first time.Time) time.Time
	InFlight() int
	Shutdown()
}

// shardCounter tallies sends per target shard.
type shardCounter struct {
	mu sync.Mutex
	m  map[string]uint64
}

func (s *shardCounter) add(shard string, n uint64) {
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[string]uint64)
	}
	s.m[shard] += n
	s.mu.Unlock()
}

func (s *shardCounter) snapshot() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.m))
	for k, v := range s.m {
		out[k] = v
	}
	return out
}

// Runner drives one configured load-generation run.
type Runner struct {
	cfg        Config
	server     *relaynet.Server // nil when targeting an external server
	cluster    *cluster.Client  // the router's view, or one node for one server
	relays     []*relaynet.RelayAgent
	units      []loadUnit
	counters   fleetCounters
	shardSent  shardCounter
	histDirect *telemetry.Histogram
	histRelay  *telemetry.Histogram

	ackTimeout time.Duration
	minPeriod  time.Duration
	maxPeriod  time.Duration
	relayedUEs int
}

// New validates the config and prepares a runner. Nothing is started until
// Run.
func New(cfg Config) (*Runner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(cfg.Profiles) == 0 {
		cfg.Profiles = hbmsg.Apps()
	}
	if cfg.Speedup == 0 {
		cfg.Speedup = 1
	}
	if cfg.HistShards == 0 {
		cfg.HistShards = 8
	}
	r := &Runner{
		cfg:        cfg,
		histDirect: telemetry.NewHistogram(cfg.HistShards),
		histRelay:  telemetry.NewHistogram(cfg.HistShards),
	}
	r.minPeriod, r.maxPeriod = r.periodRange()
	r.ackTimeout = cfg.AckTimeout
	if r.ackTimeout <= 0 {
		r.ackTimeout = 2*r.maxPeriod + 500*time.Millisecond
		if r.ackTimeout < 2*time.Second {
			r.ackTimeout = 2 * time.Second
		}
	}
	if cfg.Relays > 0 {
		r.relayedUEs = int(float64(cfg.UEs) * cfg.RelayRatio)
	}
	if reg := cfg.Telemetry; reg != nil {
		reg.Observe("loadgen_latency_direct_us", "us", r.histDirect)
		reg.Observe("loadgen_latency_relayed_us", "us", r.histRelay)
	}
	return r, nil
}

// scale compresses a duration by the configured speedup, flooring at
// minVirtualPeriod.
func (r *Runner) scale(d time.Duration) time.Duration {
	s := time.Duration(float64(d) / r.cfg.Speedup)
	if s < minVirtualPeriod {
		s = minVirtualPeriod
	}
	return s
}

func (r *Runner) periodRange() (min, max time.Duration) {
	for i, p := range r.cfg.Profiles {
		s := r.scale(p.Period)
		if i == 0 || s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	return min, max
}

// clusterURL normalizes a router target to a base URL.
func clusterURL(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return addr
	}
	return "http://" + addr
}

// Run executes the configured scenario: spawn server/relays/fleet, offer
// load for Duration, drain in-flight heartbeats, tear everything down and
// return the final report.
func (r *Runner) Run() (Report, error) {
	defer r.stopServer()
	if err := r.startServer(); err != nil {
		return Report{}, err
	}
	if err := r.startRelays(); err != nil {
		return Report{}, err
	}
	defer func() {
		for _, ra := range r.relays {
			ra.Shutdown()
		}
	}()

	if err := r.buildFleet(); err != nil {
		return Report{}, err
	}
	r.expose()

	drv := relaynet.NewDriver()
	start := r.startClock()
	sched := Schedule{Shape: r.cfg.Arrival.Shape, Window: r.arrivalWindow()}
	for i, u := range r.units {
		drv.Add(u, u.Begin(start.Add(sched.StartOffset(i, len(r.units)))))
	}

	stopReports := make(chan struct{})
	var repWg sync.WaitGroup
	if r.cfg.ReportEvery > 0 && r.cfg.OnReport != nil {
		repWg.Add(1)
		go func() {
			defer repWg.Done()
			t := time.NewTicker(r.cfg.ReportEvery)
			defer t.Stop()
			for {
				select {
				case <-stopReports:
					return
				case <-t.C:
					r.cfg.OnReport(r.snapshot(time.Since(start), false))
				}
			}
		}()
	}

	time.Sleep(r.cfg.Duration)
	drv.Stop()
	genElapsed := time.Since(start)
	close(stopReports)
	repWg.Wait()

	r.drain()
	rep := r.snapshot(genElapsed, true)
	return rep, nil
}

// startClock pins the trace and fault timelines to one instant, so
// recorded fault-window offsets line up with recorded event offsets, and
// returns it as the run's t=0.
func (r *Runner) startClock() time.Time {
	start := time.Now()
	if f := r.cfg.Faults; f != nil {
		f.Start()
		r.cfg.Recorder.Start(start, f.Seed())
		for _, w := range f.Windows() {
			r.cfg.Recorder.AddFault(rec.FaultWindow{Kind: string(w.Fault.Kind), From: w.From, To: w.To})
		}
	} else {
		r.cfg.Recorder.Start(start, 0)
	}
	return start
}

// startServer sets up the run's routing view: the router's, or a one-node
// view of the external server or of the in-process one it spawns.
func (r *Runner) startServer() (err error) {
	addr := r.cfg.ServerAddr
	switch {
	case r.cfg.ClusterAddr != "":
		// Constructing the client performs the initial config fetch, so an
		// unreachable router aborts the run up front.
		r.cluster, err = cluster.NewClient(cluster.ClientConfig{
			RouterURL: clusterURL(r.cfg.ClusterAddr),
			Telemetry: r.cfg.Telemetry,
		})
		return err
	case addr != "":
		// Probe the external server before spinning up the fleet: an
		// unreachable target should abort the run with an error, not burn
		// the full duration accumulating dial failures and then report a
		// zero-heartbeat "result" as if the measurement succeeded.
		probe, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return fmt.Errorf("loadgen: server %s unreachable: %w", addr, err)
		}
		_ = probe.Close()
	default:
		s := relaynet.NewServer()
		if r.cfg.Tracer != nil {
			s.SetTracer(r.cfg.Tracer)
		}
		if r.cfg.Telemetry != nil {
			s.SetTelemetry(r.cfg.Telemetry)
		}
		if err := s.Start("127.0.0.1:0"); err != nil {
			return err
		}
		r.server, addr = s, s.Addr()
	}
	r.cluster, err = cluster.NewSingleNodeClient(addr)
	return err
}

// stopServer undoes whatever part of startServer succeeded.
func (r *Runner) stopServer() {
	if r.cluster != nil {
		r.cluster.Close()
	}
	if r.server != nil {
		r.server.Shutdown()
	}
}

func (r *Runner) startRelays() error {
	if r.cfg.Relays == 0 || r.relayedUEs == 0 {
		return nil
	}
	capacity := r.cfg.RelayCapacity
	if capacity == 0 {
		perRelay := (r.relayedUEs + r.cfg.Relays - 1) / r.cfg.Relays
		capacity = perRelay*4 + 16
	}
	r.cfg.Recorder.SetRelay(r.minPeriod, capacity)
	for i := 0; i < r.cfg.Relays; i++ {
		ra, err := relaynet.NewRelayAgent(relaynet.RelayAgentConfig{
			ID:        fmt.Sprintf("loadrelay-%d", i),
			App:       "loadgen",
			Period:    r.minPeriod,
			Expiry:    r.minPeriod,
			Pad:       54,
			Capacity:  capacity,
			Tracer:    r.cfg.Tracer,
			Dial:      r.dialer(),
			Cluster:   r.cluster,
			Telemetry: r.cfg.Telemetry,
		})
		if err != nil {
			return err
		}
		if err := ra.Start("127.0.0.1:0", ""); err != nil {
			return err
		}
		r.relays = append(r.relays, ra)
	}
	return nil
}

// expose registers the run's delivery counters on the telemetry registry,
// each summed over the fleet when sampled. It runs once the fleet is built,
// since a sample walks the units.
func (r *Runner) expose() {
	reg := r.cfg.Telemetry
	if reg == nil {
		return
	}
	gauge := func(name string, v func(*Report) uint64) {
		reg.GaugeFunc(name, func() float64 {
			var rep Report
			r.count(&rep)
			return float64(v(&rep))
		})
	}
	gauge("loadgen_sent_total", func(rep *Report) uint64 { return rep.Sent })
	gauge("loadgen_acked_total", func(rep *Report) uint64 { return rep.Acked })
	gauge("loadgen_timeouts_total", func(rep *Report) uint64 { return rep.Timeouts })
	gauge("loadgen_errors_total", func(rep *Report) uint64 { return rep.Errors })
	gauge("loadgen_trunk_writes_total", func(rep *Report) uint64 { return rep.TrunkWrites })
	gauge("loadgen_trunk_frames_total", func(rep *Report) uint64 { return rep.TrunkFrames })
}

// dialer returns the run's outbound dial hook: the fault schedule's when
// one is configured, net.Dial otherwise.
func (r *Runner) dialer() func(network, addr string) (net.Conn, error) {
	if r.cfg.Faults != nil {
		return r.cfg.Faults.Dial
	}
	return net.Dial
}

// buildFleet constructs the load units. Trunk mode multiplexes the whole
// fleet over Trunks virtual-relay connections; otherwise every UE is one
// relaynet.UEClient holding its own sockets — the first relayedUEs forward
// through relays (round-robin), the rest go direct. Profiles rotate across
// the fleet (per trunk in trunk mode, since a trunk shares one schedule).
func (r *Runner) buildFleet() error {
	if r.cfg.Trunks > 0 {
		r.buildTrunks()
		return nil
	}
	r.units = make([]loadUnit, 0, r.cfg.UEs)
	dial := r.dialer()
	relayAddrs := make([]string, len(r.relays)) // Addr() formats the listener address: once per relay, not per UE
	for i, ra := range r.relays {
		relayAddrs[i] = ra.Addr()
	}
	// One app list per profile, shared by every UE that runs it.
	apps := make([][]relaynet.UEApp, len(r.cfg.Profiles))
	for i, p := range r.cfg.Profiles {
		apps[i] = []relaynet.UEApp{{Name: p.Name, Period: r.scale(p.Period), Expiry: r.scale(p.Expiry()), Pad: p.Size}}
	}
	ids := fleetIDs(0, r.cfg.UEs, 5)
	for i := range ids.ends {
		app := apps[i%len(apps)]
		c := rec.Client{
			ID: ids.at(i), App: app[0].Name, Period: app[0].Period, Expiry: app[0].Expiry,
			Pad: app[0].Pad, Path: rec.PathDirect, Relay: -1,
		}
		relayAddr := ""
		if i < r.relayedUEs && len(r.relays) > 0 {
			c.Path, c.Relay = rec.PathRelayed, i%len(r.relays)
			relayAddr = relayAddrs[c.Relay]
		}
		u, err := r.newUE(c.ID, app, r.cfg.Recorder.AddClient(c), dial, relayAddr)
		if err != nil {
			return err
		}
		r.units = append(r.units, u)
	}
	return nil
}

// newUE builds the UE named id running apps, recorded as trace client
// tidx. Given a relayAddr it is relayed: it registers there and falls back
// to its owning shard. Otherwise it dials its owning shard, which the run's
// cluster view re-resolves on every dial, so a reshard redirects the next
// connection.
func (r *Runner) newUE(id string, apps []relaynet.UEApp, tidx int, dial func(network, addr string) (net.Conn, error), relayAddr string) (*relaynet.UEClient, error) {
	hist := r.histDirect
	if relayAddr != "" {
		hist = r.histRelay
	}
	return relaynet.NewUEClient(relaynet.UEClientConfig{
		ID: id, Apps: apps, RelayAddr: relayAddr, Cluster: r.cluster,
		FeedbackTimeout: r.ackTimeout, Dial: dial,
		Recorder: r.cfg.Recorder, RecorderIndex: tidx, Latency: hist.Recorder(),
	})
}

// buildTrunks splits the fleet across cfg.Trunks trunks; profiles rotate
// per trunk, since a trunk's users share one schedule.
func (r *Runner) buildTrunks() {
	n := r.cfg.Trunks
	r.units = make([]loadUnit, 0, n)
	base, rem := r.cfg.UEs/n, r.cfg.UEs%n
	next := 0
	for ti := 0; ti < n; ti++ {
		count := base
		if ti < rem {
			count++
		}
		if count == 0 {
			continue
		}
		p := r.cfg.Profiles[ti%len(r.cfg.Profiles)]
		prof := tprofile{app: p.Name, expiry: r.scale(p.Expiry()), pad: p.Size}
		period := r.scale(p.Period)
		ids, clients := fleetIDs(next, count, 7), make([]tclient, count)
		for i := range clients {
			clients[i].trec = -1
			if r.cfg.Recorder != nil {
				clients[i].trec = int32(r.cfg.Recorder.AddClient(rec.Client{
					ID: ids.at(i), App: prof.app, Period: period, Expiry: prof.expiry,
					Pad: prof.pad, Path: rec.PathTrunked, Relay: ti,
				}))
			}
		}
		next += count
		// Pacing: clamp the slot count so each sub-tick covers at least one
		// user and lasts at least a millisecond.
		slots := min(r.cfg.TrunkPaceSlots, count, int(period/time.Millisecond))
		if slots <= 1 {
			slots = 0
		}
		r.units = append(r.units, r.newTrunk(fmt.Sprintf("loadtrunk-%04d", ti), period, []tprofile{prof}, ids, clients, slots))
	}
	// A trunk flushes one batch per tick, so its Algorithm 1 analog is a
	// period-long window with the largest trunk's user count as capacity.
	if len(r.units) > 0 {
		maxUsers := base
		if rem > 0 {
			maxUsers++
		}
		r.cfg.Recorder.SetRelay(r.minPeriod, maxUsers)
	}
}

// newTrunk returns a trunk of the run for the users ids names, each
// described by the clients entry at its index, with its emissions paced
// over slots sub-ticks (0: unpaced).
func (r *Runner) newTrunk(id string, period time.Duration, profiles []tprofile, ids userIDs, clients []tclient, slots int) *trunk {
	t := &trunk{
		id: id, period: period, profiles: profiles, timeout: r.ackTimeout,
		rec: r.histRelay.Recorder(), trec: r.cfg.Recorder, c: &r.counters,
		shards: &r.shardSent,
		ids:    ids, users: make([]tuser, len(ids.ends)), clients: clients,
		// A heartbeat that misses its ack window is re-sent once through
		// the then-current ring view.
		pending:   session.Pending{Fallback: true},
		paceSlots: slots,
	}
	t.up = session.Uplink{
		Cluster: r.cluster, Dial: r.dialer(),
		Register: &hbproto.Register{
			ID: id, Role: hbproto.RoleRelay, App: profiles[0].app,
			Period: period, Expiry: profiles[0].expiry,
		},
		Acks:    func(string) func([]hbproto.Ref, time.Time) { return t.onRefs },
		Sources: t,
	}
	t.index()
	return t
}

// userIDs names users by index with no string header per user: every ID
// is a substring of all, user i's ending at ends[i].
type userIDs struct {
	all  string
	ends []int32
}

// at returns user i's ID.
func (u *userIDs) at(i int) string {
	start := int32(0)
	if i > 0 {
		start = u.ends[i-1]
	}
	return u.all[start:u.ends[i]]
}

// fleetIDs names count consecutive users from first on, "loadue-%0*d" with
// the given zero-padded width, written straight into one string. The
// number is counted up in place, not formatted per user, so naming a
// 200k-user fleet is a few allocations and no fmt state machine.
func fleetIDs(first, count, width int) userIDs {
	const prefix = "loadue-"
	var b strings.Builder
	b.Grow(count * (len(prefix) + width))
	ends := make([]int32, count)
	num := fmt.Appendf(nil, "%0*d", width, first)
	for i := range ends {
		b.WriteString(prefix)
		b.Write(num)
		ends[i] = int32(b.Len())
		d := len(num) - 1
		for ; d >= 0 && num[d] == '9'; d-- {
			num[d] = '0'
		}
		if d < 0 {
			num = append([]byte{'1'}, num...)
		} else {
			num[d]++
		}
	}
	return userIDs{all: b.String(), ends: ends}
}

// arrivalWindow resolves the schedule window default: one mean period for
// steady (pure phase stagger), half the run for a ramp.
func (r *Runner) arrivalWindow() time.Duration {
	if r.cfg.Arrival.Window > 0 || r.cfg.Arrival.Shape == ArrivalSpike {
		return r.cfg.Arrival.Window
	}
	if r.cfg.Arrival.Shape == ArrivalRamp {
		return r.cfg.Duration / 2
	}
	return (r.minPeriod + r.maxPeriod) / 2
}

// drain waits for in-flight heartbeats to be acknowledged, then shuts the
// units down, which writes off whatever is left as timeouts. Sweeping
// inside the wait matters: a pending heartbeat whose relay path failed only
// gets its direct fallback resend from the sweep, so a drain that merely
// polled counts would sit out the timeout and report the heartbeat lost.
func (r *Runner) drain() {
	deadline := time.Now().Add(r.ackTimeout + 500*time.Millisecond)
	for time.Now().Before(deadline) {
		now := time.Now()
		pending := 0
		for _, u := range r.units {
			u.Sweep(now)
			pending += u.InFlight()
		}
		if pending == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, u := range r.units {
		u.Shutdown() // returns once the unit's ack readers have exited
	}
}
