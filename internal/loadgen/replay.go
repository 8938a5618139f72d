package loadgen

// Live trace replay: ReplayLive drives a recorded timeline (internal/rec)
// through the real TCP stack with the load generator's own units. Each
// direct client replays as a relaynet.UEClient over its own connection,
// driven through its Send; each relay/trunk group replays as a trunk that
// sends each recorded emission (rec.Timeline.Steps) as one Batch frame. The
// emissions are a deterministic function of the trace even though
// wall-clock latencies are not, and experiments.ReplaySim's trunked groups
// emit the same ones. ReplaySim gives the sim column of the parity report;
// this gives the live column.

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"d2dhb/internal/faultnet"
	"d2dhb/internal/inflight"
	"d2dhb/internal/rec"
	"d2dhb/internal/relaynet"
)

// ReplayOptions parameterizes one live replay.
type ReplayOptions struct {
	// ServerAddr targets an existing presence server. Empty spawns an
	// in-process relaynet.Server on Net.
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
	// Net is the network the replay listens and dials on, as Config.Net:
	// nil is the host's, and a Schedule's On replays under its faults.
	Net faultnet.Net
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
	if opts.Net == nil {
		opts.Net = faultnet.OS{}
	}

	recorder := rec.NewRecorder()
	r := &Runner{
		cfg: Config{
			ServerAddr: opts.ServerAddr, ClusterAddr: opts.ClusterAddr,
			Net: opts.Net, Recorder: recorder,
		},
		tracer: recorder, ackTimeout: opts.AckTimeout,
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
	units, err := r.replayUnits(tl, opts.Speedup)
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
// heartbeats, and the last one retires it. Between steps it also wakes
// when its earliest ack window lapses, and then only sweeps, so a lost
// heartbeat is resent or written off at its lapse, not at the unit's next
// recorded send.
type replayUnit struct {
	loadUnit
	start time.Time // the replay's t=0
	steps []replayStep
	next  int // the next step's index
	send  func(refs []inflight.Key, now time.Time)
	lapse func() (time.Time, bool) // when the unit's earliest ack window closes
}

// replayStep is one recorded uplink: its heartbeats as (unit slot, seq)
// and its replay offset — the last one's recorded offset over the speedup.
type replayStep struct {
	at   time.Duration
	refs []inflight.Key
}

// Begin takes the replay's t=0 and returns the first step's instant.
func (u *replayUnit) Begin(start time.Time) time.Time {
	u.start = start
	return start.Add(u.steps[0].at)
}

// Step sweeps the unit and replays the next recorded step once it is due,
// and returns the earlier of the step after and the unit's next lapse.
func (u *replayUnit) Step(now time.Time) (time.Time, bool) {
	u.Sweep(now)
	if !now.Before(u.start.Add(u.steps[u.next].at)) {
		u.send(u.steps[u.next].refs, now)
		if u.next++; u.next == len(u.steps) {
			return time.Time{}, false
		}
	}
	next := u.start.Add(u.steps[u.next].at)
	if at, ok := u.lapse(); ok && at.Before(next) {
		next = at
	}
	return next, true
}

// replayUnits builds the timeline's units in their order: a UE per direct
// client, a trunk per relay/trunk group.
func (r *Runner) replayUnits(tl *rec.Timeline, speedup float64) ([]*replayUnit, error) {
	var units []*replayUnit
	for _, steps := range tl.Units(rec.Coalesce) {
		c := tl.Clients[steps[0][0].Client]
		if c.Relay >= 0 {
			units = append(units, r.replayGroup(tl, c.Relay, steps, speedup))
			continue
		}
		u, err := r.replayDirect(c, steps, speedup)
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
func (r *Runner) replayDirect(c rec.Client, steps [][]rec.Event, speedup float64) (*replayUnit, error) {
	app := []relaynet.UEApp{{Name: c.App, Period: max(c.Period, minVirtualPeriod), Expiry: c.Expiry, Pad: c.Pad}}
	u, err := r.newUE(c.ID, app, r.cfg.Net.Dial, "")
	if err != nil {
		return nil, err
	}
	return &replayUnit{
		loadUnit: u,
		steps:    replaySchedule(steps, func(int) int { return 0 }, speedup),
		send:     func(refs []inflight.Key, now time.Time) { u.Send(0, refs[0].Seq, now) },
		lapse:    u.Lapse,
	}, nil
}

// replayGroup builds a relay/trunk group's trunk: one user per client ID of
// the group and one profile per distinct (app, expiry, pad) among them,
// registered with the trace's relay period. Each step is one emission.
func (r *Runner) replayGroup(tl *rec.Timeline, g int, steps [][]rec.Event, speedup float64) *replayUnit {
	var profiles []tprofile
	var ids strings.Builder
	var ends []int32
	var prof []int32
	users := make(map[string]int) // client ID → user index
	for _, e := range slices.Concat(steps...) {
		c := tl.Clients[e.Client]
		if _, ok := users[c.ID]; ok {
			continue
		}
		users[c.ID] = len(prof)
		p := tprofile{app: c.App, expiry: c.Expiry, pad: c.Pad}
		pi := slices.Index(profiles, p)
		if pi < 0 {
			pi, profiles = len(profiles), append(profiles, p)
		}
		ids.WriteString(c.ID)
		ends = append(ends, int32(ids.Len()))
		prof = append(prof, int32(pi))
	}
	t := r.newTrunk(fmt.Sprintf("replay-trunk-%04d", g), tl.RelayPeriod, profiles, userIDs{all: ids.String(), ends: ends}, prof, 0)
	return &replayUnit{
		loadUnit: t,
		steps:    replaySchedule(steps, func(c int) int { return users[tl.Clients[c].ID] }, speedup),
		send:     t.offer,
		lapse:    t.pendingLapse,
	}
}

// replaySchedule keys each recorded step's sends by slot(client) and the
// recorded seq, at its last send's recorded offset over the speedup.
func replaySchedule(steps [][]rec.Event, slot func(client int) int, speedup float64) []replayStep {
	out := make([]replayStep, len(steps))
	for i, s := range steps {
		refs := make([]inflight.Key, len(s))
		for j, e := range s {
			refs[j] = inflight.Key{Slot: slot(e.Client), Seq: e.Seq}
		}
		out[i] = replayStep{at: time.Duration(float64(s[len(s)-1].At) / speedup), refs: refs}
	}
	return out
}
