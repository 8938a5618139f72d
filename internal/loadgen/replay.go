package loadgen

// Live trace replay: ReplayLive drives a recorded timeline (internal/rec)
// through the real TCP stack with the load generator's own units. Each
// direct client replays as a relaynet.UEClient over its own connection,
// driven through its Send; each relay/trunk
// group replays as a trunk, with consecutive sends coalesced into Batch
// frames by their *recorded* gaps — so the batching structure is a
// deterministic function of the trace even though wall-clock latencies are
// not. The same trace file replayed through experiments.ReplaySim gives the
// sim column of the parity report; this gives the live column.

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"d2dhb/internal/faultnet"
	"d2dhb/internal/rec"
	"d2dhb/internal/relaynet"
	"d2dhb/internal/session"
)

// ReplayOptions parameterizes one live replay.
type ReplayOptions struct {
	// ServerAddr targets an existing presence server. Empty spawns an
	// in-process relaynet.Server on loopback.
	ServerAddr string
	// ClusterAddr targets a cluster instead of a single server: the
	// router's base URL (e.g. "http://127.0.0.1:7590"). Routing is the
	// same either way — a single server is a one-node ring: direct clients
	// dial their owning shard, trunk groups partition each batch per shard
	// under one ring view — so a trace recorded against a cluster replays
	// through the same routing function. Mutually exclusive with
	// ServerAddr: ReplayLive rejects both set.
	ClusterAddr string
	// Speedup divides recorded offsets so long recordings replay quickly.
	// Zero means 1.
	Speedup float64
	// AckTimeout is the replayed clients' ack timeout, with the recorded
	// clients' loss policy: a relay/trunk group re-sends a heartbeat once
	// when it lapses, a direct client does not, and what is still
	// unacknowledged after the drain counts lost. Zero selects 2 s.
	AckTimeout time.Duration
	// Coalesce folds consecutive same-group sends whose *recorded* gap is
	// at most this into one Batch frame. Zero selects 2 ms. The decision
	// uses recorded instants, never the wall clock, so two replays of the
	// same trace always build the same frames.
	Coalesce time.Duration
	// Faults re-injects a fault schedule into every replay dial. Nil
	// replays over a clean network.
	Faults *faultnet.Schedule
}

// ReplayLive replays the recorded timeline against the live stack and
// returns the measured outcome: the same summary as the timeline's own
// RecordedMetrics, taken from a recording of the replay, with every offered
// send counted in Sent and every one not delivered in Timeouts.
func ReplayLive(tl *rec.Timeline, opts ReplayOptions) (rec.Metrics, error) {
	if tl == nil {
		return rec.Metrics{}, fmt.Errorf("loadgen: nil timeline")
	}
	if err := tl.Validate(); err != nil {
		return rec.Metrics{}, err
	}
	if opts.ClusterAddr != "" && opts.ServerAddr != "" {
		return rec.Metrics{}, fmt.Errorf("loadgen: cluster and server replay targets are mutually exclusive")
	}
	if opts.Speedup <= 0 {
		opts.Speedup = 1
	}
	if opts.AckTimeout <= 0 {
		opts.AckTimeout = 2 * time.Second
	}
	if opts.Coalesce <= 0 {
		opts.Coalesce = 2 * time.Millisecond
	}

	r := &Runner{
		cfg: Config{
			ServerAddr: opts.ServerAddr, ClusterAddr: opts.ClusterAddr,
			Faults: opts.Faults, Recorder: rec.NewRecorder(),
		},
		ackTimeout: opts.AckTimeout,
	}
	defer r.stopServer()
	if err := r.startServer(); err != nil {
		return rec.Metrics{}, err
	}
	// The replay's client table mirrors the timeline's, so its recording
	// indexes clients the way the input does.
	for _, c := range tl.Clients {
		r.cfg.Recorder.AddClient(c)
	}
	units, err := r.replayUnits(tl, opts)
	if err != nil {
		return rec.Metrics{}, err
	}

	drv := relaynet.NewDriver()
	start := r.startClock()
	for _, u := range units {
		r.units = append(r.units, u)
		drv.Add(u, u.Begin(start))
	}
	drv.Wait()
	drv.Stop()
	r.drain()
	uplinks := r.counters.trunkWrites.Load()
	for _, u := range units {
		if ue, ok := u.loadUnit.(*relaynet.UEClient); ok {
			uplinks += uint64(ue.Stats().Direct)
		}
	}

	replayed, err := r.cfg.Recorder.Timeline()
	if err != nil {
		return rec.Metrics{}, err
	}
	m := replayed.RecordedMetrics()
	m.Source = "live"
	// A send whose frame never reached the wire is not in the recording.
	m.Sent = uint64(tl.Sends())
	m.Timeouts = m.Sent - m.Delivered
	m.Signaling.Uplinks = uplinks
	m.Signaling.Batches = r.counters.trunkFrames.Load()
	m.Finish()
	return m, nil
}

// replayUnit is a UE or trunk stepped through a finite recorded schedule
// instead of a period: each step sweeps the unit, then hands it the step's
// heartbeats, and the last one retires it.
type replayUnit struct {
	loadUnit
	start time.Time // the replay's t=0
	steps []replayStep
	next  int // the next step's index
	send  func(refs []session.Key, now time.Time)
}

// replayStep is one recorded uplink: its heartbeats as (unit slot, seq)
// and its replay offset — the last one's recorded offset over the speedup.
type replayStep struct {
	at   time.Duration
	refs []session.Key
}

// Begin takes the replay's t=0 and returns the first step's instant.
func (u *replayUnit) Begin(start time.Time) time.Time {
	u.start = start
	return start.Add(u.steps[0].at)
}

// Step replays the next recorded step.
func (u *replayUnit) Step(now time.Time) (time.Time, bool) {
	u.Sweep(now)
	u.send(u.steps[u.next].refs, now)
	if u.next++; u.next == len(u.steps) {
		return time.Time{}, false
	}
	return u.start.Add(u.steps[u.next].at), true
}

// replayUnits splits the timeline's sends into units, in the order of each
// unit's first send: a UE per direct client, a trunk per relay/trunk
// group.
func (r *Runner) replayUnits(tl *rec.Timeline, opts ReplayOptions) ([]*replayUnit, error) {
	sends := make(map[int][]rec.Event) // direct client index, or -1 − group
	var order []int
	for _, e := range tl.Events {
		if e.Kind != rec.EvSend {
			continue
		}
		k := e.Client
		if g := tl.Clients[e.Client].Relay; g >= 0 {
			k = -1 - g
		}
		if _, seen := sends[k]; !seen {
			order = append(order, k)
		}
		sends[k] = append(sends[k], e)
	}
	units := make([]*replayUnit, 0, len(order))
	for _, k := range order {
		if k < 0 {
			units = append(units, r.replayGroup(tl, -1-k, sends[k], opts))
			continue
		}
		u, err := r.replayDirect(tl.Clients[k], k, sends[k], opts.Speedup)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// replayDirect builds a direct client's UE, one heartbeat per step. The
// replay, not the UE's loop, sends, so the recorded period only has to be
// a valid one.
func (r *Runner) replayDirect(c rec.Client, tidx int, sends []rec.Event, speedup float64) (*replayUnit, error) {
	app := []relaynet.UEApp{{Name: c.App, Period: max(c.Period, minVirtualPeriod), Expiry: c.Expiry, Pad: c.Pad}}
	u, err := r.newUE(c.ID, app, tidx, r.dialer(), "")
	if err != nil {
		return nil, err
	}
	return &replayUnit{
		loadUnit: u,
		steps:    replaySteps(sends, func(int) int { return 0 }, 0, 1, speedup),
		send:     func(refs []session.Key, now time.Time) { u.Send(0, refs[0].Seq, now) },
	}, nil
}

// replayGroup builds a relay/trunk group's trunk: one user per client ID of
// the group and one profile per distinct (app, expiry, pad) among them,
// registered with the trace's relay period. A step is a run of consecutive
// sends whose recorded gaps are at most Coalesce, at most the trace's relay
// capacity of them — the aggregation the group performed live.
func (r *Runner) replayGroup(tl *rec.Timeline, g int, sends []rec.Event, opts ReplayOptions) *replayUnit {
	var profiles []tprofile
	var ids strings.Builder
	var ends []int32
	var clients []tclient
	seen := make(map[string]bool)
	for _, e := range sends {
		c := tl.Clients[e.Client]
		if seen[c.ID] {
			continue
		}
		seen[c.ID] = true
		p := tprofile{app: c.App, expiry: c.Expiry, pad: c.Pad}
		pi := slices.Index(profiles, p)
		if pi < 0 {
			pi, profiles = len(profiles), append(profiles, p)
		}
		ids.WriteString(c.ID)
		ends = append(ends, int32(ids.Len()))
		clients = append(clients, tclient{trec: int32(e.Client), prof: int32(pi)})
	}
	t := r.newTrunk(fmt.Sprintf("replay-trunk-%04d", g), tl.RelayPeriod, profiles, userIDs{all: ids.String(), ends: ends}, clients, 0)
	user := func(c int) int {
		_, h := t.Source(0, []byte(tl.Clients[c].ID))
		return int(h) - 1
	}
	return &replayUnit{
		loadUnit: t,
		steps:    replaySteps(sends, user, opts.Coalesce, tl.RelayCapacity, opts.Speedup),
		send:     t.offer,
	}
}

// replaySteps groups a unit's recorded sends into steps: runs of
// consecutive sends whose recorded gaps are at most coalesce, at most limit
// of them (0: no limit), keyed by slot(client) and the recorded seq.
func replaySteps(sends []rec.Event, slot func(client int) int, coalesce time.Duration, limit int, speedup float64) []replayStep {
	keys := make([]session.Key, len(sends))
	for i, e := range sends {
		keys[i] = session.Key{Slot: slot(e.Client), Seq: e.Seq}
	}
	var steps []replayStep
	for i := 0; i < len(sends); {
		j := i + 1
		for j < len(sends) && sends[j].At-sends[j-1].At <= coalesce && (limit == 0 || j-i < limit) {
			j++
		}
		steps = append(steps, replayStep{at: time.Duration(float64(sends[j-1].At) / speedup), refs: keys[i:j]})
		i = j
	}
	return steps
}
