package loadgen

// Live trace replay: ReplayLive drives a recorded timeline (internal/rec)
// through the real TCP stack. Direct clients replay over their own
// connections exactly like vues; relayed and trunked clients replay
// through one trunk connection per recorded relay group, with consecutive
// sends coalesced into Batch frames by their *recorded* gaps — so the
// batching structure is a deterministic function of the trace even though
// wall-clock latencies are not. The same trace file replayed through
// experiments.ReplaySim gives the sim column of the parity report; this
// gives the live column.

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/faultnet"
	"d2dhb/internal/hbproto"
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
	// AckTimeout bounds the post-send drain wait. Zero selects 2 s.
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

// replayUnit is one connection's worth of replayed clients: a single
// direct client, or every client of one relay/trunk group.
type replayUnit struct {
	group   int // -1 for a direct unit
	relayID string
	sends   []rec.Event
}

// liveReplay is the shared state of one ReplayLive run.
type liveReplay struct {
	tl      *rec.Timeline
	opts    ReplayOptions
	cluster *cluster.Client // the router's view, or one node for one server
	start   time.Time

	// slot maps a client ID to its pending slot: the timeline index of
	// the first client with that ID. Immutable after construction.
	slot map[string]int

	mu        sync.Mutex
	pending   session.Pending
	lat       *rec.Sample
	delivered uint64
	uplinks   uint64
	batches   uint64
	werrs     uint64
	slots     []*session.Slot // every unit's connections, closed after the drain
}

// ReplayLive replays the recorded timeline against the live stack and
// returns the measured outcome.
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

	r := &liveReplay{
		tl:   tl,
		opts: opts,
		slot: make(map[string]int, len(tl.Clients)),
		lat:  rec.NewSample(),
	}
	for i := len(tl.Clients) - 1; i >= 0; i-- {
		r.slot[tl.Clients[i].ID] = i
	}

	var err error
	if opts.ClusterAddr != "" {
		r.cluster, err = cluster.NewClient(cluster.ClientConfig{RouterURL: clusterURL(opts.ClusterAddr)})
	} else {
		addr := opts.ServerAddr
		if addr == "" {
			server := relaynet.NewServer()
			if err := server.Start("127.0.0.1:0"); err != nil {
				return rec.Metrics{}, err
			}
			defer server.Shutdown()
			addr = server.Addr()
		}
		r.cluster, err = cluster.NewSingleNodeClient(addr)
	}
	if err != nil {
		return rec.Metrics{}, err
	}
	defer r.cluster.Close()

	// Split the send timeline into per-connection units, preserving order.
	direct := make(map[int]*replayUnit)
	groups := make(map[int]*replayUnit)
	for _, e := range tl.Events {
		if e.Kind != rec.EvSend {
			continue
		}
		c := tl.Clients[e.Client]
		var u *replayUnit
		if c.Relay < 0 {
			if u = direct[e.Client]; u == nil {
				u = &replayUnit{group: -1}
				direct[e.Client] = u
			}
		} else {
			if u = groups[c.Relay]; u == nil {
				u = &replayUnit{group: c.Relay, relayID: fmt.Sprintf("replay-trunk-%04d", c.Relay)}
				groups[c.Relay] = u
			}
		}
		u.sends = append(u.sends, e)
	}
	units := make([]*replayUnit, 0, len(direct)+len(groups))
	for _, u := range direct {
		units = append(units, u)
	}
	for _, u := range groups {
		units = append(units, u)
	}
	// Map iteration order is random; fix the spawn order so runs are
	// structurally identical.
	sort.Slice(units, func(i, j int) bool {
		if units[i].group != units[j].group {
			return units[i].group < units[j].group
		}
		return units[i].sends[0].Client < units[j].sends[0].Client
	})

	var sendWg sync.WaitGroup
	r.start = time.Now()
	if opts.Faults != nil {
		opts.Faults.Start()
	}
	for _, u := range units {
		sendWg.Add(1)
		go func(u *replayUnit) {
			defer sendWg.Done()
			r.runUnit(u)
		}(u)
	}
	sendWg.Wait()

	// Drain: give in-flight acks one timeout window to land.
	deadline := time.Now().Add(opts.AckTimeout)
	for time.Now().Before(deadline) {
		r.mu.Lock()
		n := r.pending.Len()
		r.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	r.mu.Lock()
	slots := r.slots
	r.slots = nil
	r.mu.Unlock()
	for _, s := range slots {
		s.Close()
	}

	m := rec.Metrics{Source: "live"}
	r.mu.Lock()
	lost := uint64(r.pending.Len())
	m.Sent = lost + r.delivered + r.werrs
	m.Delivered = r.delivered
	m.Timeouts = lost + r.werrs
	m.AckLatency = r.lat.Quantiles()
	m.Signaling.Uplinks = r.uplinks
	m.Signaling.Batches = r.batches
	r.mu.Unlock()
	m.Finish()
	return m, nil
}

// pace sleeps until the recorded offset's replay instant.
func (r *liveReplay) pace(at time.Duration) {
	target := r.start.Add(time.Duration(float64(at) / r.opts.Speedup))
	if d := time.Until(target); d > 0 {
		time.Sleep(d)
	}
}

// newSlot returns an unconnected session slot whose every dial goes to
// whatever resolve maps key to then, optionally through the fault
// schedule, registering as a relay when register is set. The slot stays
// open through the drain phase so late acks still settle; ReplayLive
// closes it after.
func (r *liveReplay) newSlot(key string, resolve func(string) string, register *hbproto.Register) *session.Slot {
	dial := net.Dial
	if r.opts.Faults != nil {
		dial = r.opts.Faults.Dial
	}
	s := &session.Slot{Dial: dial, Addr: key, Resolve: resolve, Register: register, OnRefs: r.onRefs}
	r.mu.Lock()
	r.slots = append(r.slots, s)
	r.mu.Unlock()
	return s
}

// runUnit replays one connection's send subsequence.
func (r *liveReplay) runUnit(u *replayUnit) {
	if u.group < 0 {
		r.runDirect(u)
		return
	}
	r.runTrunk(u)
}

// runDirect replays a direct client: one heartbeat frame per recorded
// send, paced to the recorded offsets.
func (r *liveReplay) runDirect(u *replayUnit) {
	c := r.tl.Clients[u.sends[0].Client]
	// Re-resolve on every redial: a reshard between sends moves the
	// client's owner, and the replay should follow it the way the live
	// fleet does.
	slot := r.newSlot(c.ID, r.cluster.OwnerAddr, nil)
	_, _ = slot.Connect() // dial ahead of the first paced send; Send retries
	for _, e := range u.sends {
		r.pace(e.At)
		now := time.Now()
		hb := &hbproto.Heartbeat{
			Src: c.ID, Seq: e.Seq, App: c.App,
			Origin: now, Expiry: c.Expiry, Pad: c.Pad,
		}
		k := r.key(c.ID, e.Seq)
		r.track(k, now)
		if _, err := slot.Send(hb); err != nil {
			r.noteWriteError(k)
			continue
		}
		r.noteUplink(false)
	}
}

// runTrunk replays one relay/trunk group: consecutive sends within the
// recorded coalesce window become one Batch frame, written at the last
// member's offset — exactly the aggregation the group performed live. Each
// coalesced batch is partitioned per owning shard under one ring view (one
// connection per shard), the same split the live trunk performs.
func (r *liveReplay) runTrunk(u *replayUnit) {
	slots := make(map[string]*session.Slot) // shard ID → slot
	for i := 0; i < len(u.sends); {
		// The batch is [i, j): recorded gaps ≤ Coalesce, bounded by the
		// trace's relay capacity when one is recorded.
		j := i + 1
		for j < len(u.sends) && u.sends[j].At-u.sends[j-1].At <= r.opts.Coalesce {
			if r.tl.RelayCapacity > 0 && j-i >= r.tl.RelayCapacity {
				break
			}
			j++
		}
		r.pace(u.sends[j-1].At)
		keys := make([]string, j-i)
		for k, e := range u.sends[i:j] {
			keys[k] = r.tl.Clients[e.Client].ID
		}
		for _, g := range r.cluster.View().Ring().GroupSorted(keys) {
			sub := make([]rec.Event, len(g.Idxs))
			for k, idx := range g.Idxs {
				sub[k] = u.sends[i+idx]
			}
			r.sendTrunkBatch(slots, u, g.Shard, sub)
		}
		i = j
	}
}

// sendTrunkBatch writes one (shard-local) Batch frame on the group's
// slot for that shard, which redials at most once per batch.
func (r *liveReplay) sendTrunkBatch(slots map[string]*session.Slot, u *replayUnit, shard string, events []rec.Event) {
	slot := slots[shard]
	if slot == nil {
		slot = r.newSlot(shard, r.cluster.NodeAddr, &hbproto.Register{
			ID: u.relayID, Role: hbproto.RoleRelay, App: "replay",
			Period: r.tl.RelayPeriod, Expiry: r.tl.RelayPeriod,
		})
		slots[shard] = slot
	}
	now := time.Now()
	b := &hbproto.Batch{Relay: u.relayID, HBs: make([]hbproto.Heartbeat, 0, len(events))}
	keys := make([]session.Key, 0, len(events))
	for _, e := range events {
		c := r.tl.Clients[e.Client]
		b.HBs = append(b.HBs, hbproto.Heartbeat{
			Src: c.ID, Seq: e.Seq, App: c.App,
			Origin: now, Expiry: c.Expiry, Pad: c.Pad,
		})
		k := r.key(c.ID, e.Seq)
		keys = append(keys, k)
		r.track(k, now)
	}
	if _, err := slot.Send(b); err != nil {
		r.noteWriteError(keys...)
		return
	}
	r.noteUplink(true)
}

// key names a replayed heartbeat in the pending table.
func (r *liveReplay) key(id string, seq uint64) session.Key {
	return session.Key{Slot: r.slot[id], Seq: seq}
}

func (r *liveReplay) track(k session.Key, at time.Time) {
	r.mu.Lock()
	r.pending.Track(k, at)
	r.mu.Unlock()
}

// noteWriteError counts heartbeats that never hit the wire (dial or write
// failure) and stops tracking them.
func (r *liveReplay) noteWriteError(keys ...session.Key) {
	r.mu.Lock()
	for _, k := range keys {
		r.pending.Abandon(k)
	}
	r.werrs += uint64(len(keys))
	r.mu.Unlock()
}

func (r *liveReplay) noteUplink(batch bool) {
	r.mu.Lock()
	r.uplinks++
	if batch {
		r.batches++
	}
	r.mu.Unlock()
}

// onRefs settles acknowledged heartbeats; a source the timeline does not
// name settles nothing.
func (r *liveReplay) onRefs(_ int, refs []hbproto.Ref, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ref := range refs {
		slot, known := r.slot[ref.Src]
		if !known {
			continue
		}
		if lat, ok := r.pending.Settle(session.Key{Slot: slot, Seq: ref.Seq}, at); ok {
			r.delivered++
			r.lat.Add(float64(lat) / float64(time.Millisecond))
		}
	}
}
