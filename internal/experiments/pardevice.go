package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"d2dhb/internal/d2d"
	"d2dhb/internal/device"
	"d2dhb/internal/energy"
	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/presence"
	"d2dhb/internal/radio"
	"d2dhb/internal/rrc"
	"d2dhb/internal/simtime"
	"d2dhb/internal/trace"
)

// This file is the windowed substrate of the parallel city kernel: the
// implementations of internal/device's seams (Radio, Link, RelayRadio,
// Uplink, plus trace.Tracer and an agenda clock) under which device.UE and
// device.Relay run unchanged on tiles. Every cross-device interaction —
// discovery, group formation, heartbeat forwarding, feedback acks — is
// judged against immutable window-boundary snapshots and applied at the
// next boundary as a canonically ordered operation. That makes each
// device's entire window a pure function of (its own state, its own RNG
// stream, the shared snapshot), so tiles can run concurrently and the
// merged result is bit-identical for any tile count. The price is
// semantics: D2D effects land one window (≤ W virtual seconds) later than
// on the sequential substrate, so the two kernels produce different — each
// internally deterministic — golden digests.

// opKind discriminates boundary operations.
type opKind uint8

const (
	opConnect opKind = iota + 1 // UE → relay: group formation (responder charges)
	opForward                   // UE → relay: one forwarded heartbeat
	opAck                       // relay → UE: feedback acknowledgement
)

// parOp is one deferred cross-device effect. Ops are applied at the start
// of the next window on the destination's tile, sorted by (createdAt, src,
// srcSeq) — a strict total order, since srcSeq never repeats within a
// device. Each tile sorts only the ops routed to it; because the order is
// total that is the globally sorted sequence restricted to the tile, which
// is what makes application order independent of the partition.
type parOp struct {
	createdAt time.Duration
	src, dst  int // population orders
	srcSeq    uint64
	kind      opKind
	hb        hbmsg.Heartbeat      // opForward
	ref       d2d.AckRef           // opAck
	charge    energy.MicroAmpHours // opForward: receiver-side recv charge at send distance
}

// parDelivery is one heartbeat observed at the network side, keyed by the
// transmitting (via) device so per-window merges are canonical. The source
// is carried as its population order: the barrier resets its presence timer
// by index.
type parDelivery struct {
	at       time.Duration
	viaOrder int
	viaSeq   uint64
	srcOrder int
	expiry   time.Duration
	onTime   bool
}

// parTile is the per-tile mutable state. Everything here is owned by the
// tile's worker during a window (begin and end hooks included) and by the
// barrier between windows.
type parTile struct {
	sched *simtime.Scheduler
	// sampled lists the tile's devices whose snapshot entry can change —
	// movers and relays — and so is all a boundary has to visit. A static
	// UE is on no list: it lives on the tile it was placed on for good.
	sampled    []*pdevice
	inOps      []parOp
	outOps     []parOp
	deliveries []parDelivery
	events     []trace.Keyed
	// migrants are the devices the end hook took off this tile, arrivals the
	// ones the barrier routed here for the begin hook to take on.
	migrants []*pdevice
	arrivals []*pdevice

	// Scan scratch, shared by the tile's devices: a scan's result is
	// consumed (matching.Select, then Connect) before Scan is called again.
	scanBuf []d2d.Beacon
	peerBuf []d2d.PeerInfo

	// Work counters, summed into ParallelCityStats after the run.
	positionSamples, legRefreshes, scanCandidates int
}

// parSnap is one device's externally visible state as frozen at a window
// boundary; the capacity fields are zero for UEs.
type parSnap struct {
	pos       geo.Point
	free      int
	intent    int
	accepting bool
}

// parEnv is the shared environment of one parallel city run. snap and next
// are written only at disjoint indices by the owning workers or only by
// the barrier; the rest is immutable after setup.
type parEnv struct {
	radio radio.Ranged
	model energy.Model

	devices   []*pdevice
	numRelays int
	orderOf   map[hbmsg.DeviceID]int

	// tracker is the network side's presence table. timers caches its timer
	// for every device heard from, by population order: only the barrier
	// delivers to them, and the report reads them through the tracker.
	tracker *presence.Tracker
	timers  []*presence.Timer

	// snap is the window-boundary snapshot, read-only during a window. The
	// end hooks write next — tiles finish windows at different wall times,
	// so writing the live snapshot would race slower tiles' reads — and the
	// barrier swaps the two. The two-buffer rule: an entry is either
	// rewritten in next at every published boundary (sampled devices: what
	// the swapped-out buffer held of them is two boundaries old and is
	// overwritten before it is read again) or written into both buffers at
	// set-up and never again (static UEs, whose entry is a position that
	// cannot change). Nothing may be written to one buffer only.
	snap, next []parSnap
	beacons    *d2d.BeaconIndex
	beaconBuf  []d2d.Beacon

	tiles []*parTile
	// mergeDeliveries scratch: per tile, the merge's cursor into the log and
	// the instant of the delivery under it.
	mergeNext  []int
	mergeHeads []time.Duration
	traceOn    bool
}

// pdevice is one device's windowed substrate: it is the Radio (or
// RelayRadio), Uplink and Tracer of the device.UE or device.Relay it
// carries. Exactly one of relay/ue is non-nil.
type pdevice struct {
	env   *parEnv
	id    hbmsg.DeviceID
	order int
	mob   geo.Mobility
	// A walker answers positions from the leg it is on and goes back to the
	// walk only when that leg has ended; device time never runs backwards.
	walker *geo.RandomWaypoint // mob when it is a random-waypoint walk, else nil
	leg    geo.Leg
	moves  bool // the position can change: sampled and re-binned at boundaries

	// tile is where the device spends the current window — from the end hook
	// that finds it has left, where it will spend the next.
	tile    int
	tileIdx int // index in the tile's sampled list, maintained by migration; -1 for a static UE

	rng    *rand.Rand
	agenda *simtime.Agenda
	ledger *energy.Ledger
	rrc    *rrc.Machine
	tracer trace.Tracer // the device itself when the run captures a trace, else nil

	emitSeq    uint64
	deliverSeq uint64
	opSeq      uint64

	relay     *device.Relay
	beaconing bool // the relay has begun advertising

	ue   *device.UE
	link *parLink // the link Connect last formed
}

func (d *pdevice) clock() simtime.Clock { return simtime.AgendaClock{A: d.agenda} }

func (d *pdevice) now() time.Duration { return d.agenda.Now() }

func (d *pdevice) pos() geo.Point { return d.posAt(d.now()) }

// posAt is the device's position at t, which is now or the boundary the
// device's tile has just reached.
func (d *pdevice) posAt(t time.Duration) geo.Point {
	if d.walker == nil {
		return d.mob.Pos(t)
	}
	if t >= d.leg.End {
		d.leg = d.walker.LegAt(t)
		d.env.tiles[d.tile].legRefreshes++
	}
	return d.leg.At(t)
}

// Emit records one trace event into the owning tile's window buffer, keyed
// for the canonical merge.
func (d *pdevice) Emit(ev trace.Event) {
	tl := d.env.tiles[d.tile]
	tl.events = append(tl.events, trace.Keyed{Order: d.order, Seq: d.emitSeq, Ev: ev})
	d.emitSeq++
}

// sendOp queues one cross-device effect for the next boundary.
func (d *pdevice) sendOp(op parOp) {
	op.createdAt = d.now()
	op.src = d.order
	op.srcSeq = d.opSeq
	d.opSeq++
	tl := d.env.tiles[d.tile]
	tl.outOps = append(tl.outOps, op)
}

// Send transmits a batch over the device's cellular modem: RRC, energy,
// network-side delivery log and per-heartbeat delivery trace. The delivery
// records are keyed by this (via) device so the per-window merge feeding
// the presence tracker is canonical.
func (d *pdevice) Send(hbs []hbmsg.Heartbeat, phase energy.Phase) error {
	now := d.now()
	payload := 0
	for _, hb := range hbs {
		payload += hb.Size
	}
	if err := d.rrc.Send(payload); err != nil {
		return err
	}
	d.ledger.Add(phase, d.env.model.CellularTxCharge(len(hbs), payload))
	tl := d.env.tiles[d.tile]
	for _, hb := range hbs {
		onTime := !hb.Expired(now)
		src := d.order
		if hb.Src != d.id {
			src = d.env.orderOf[hb.Src]
		}
		tl.deliveries = append(tl.deliveries, parDelivery{
			at: now, viaOrder: d.order, viaSeq: d.deliverSeq, srcOrder: src, expiry: hb.Expiry, onTime: onTime,
		})
		d.deliverSeq++
		trace.Emit(d.tracer, trace.Event{
			At: now, Device: string(hb.Src), Kind: trace.KindDelivery,
			App: hb.App, Seq: hb.Seq, Peer: string(d.id), OnTime: onTime,
		})
	}
	return nil
}

// ---------------------------------------------------------------------------
// UE side

// Scan discovers against the beacon snapshot. The result lives in the
// tile's scratch until the tile's next Scan.
func (d *pdevice) Scan() []d2d.PeerInfo {
	env, tl := d.env, d.env.tiles[d.tile]
	d.ledger.Add(energy.PhaseDiscovery, env.model.UEDiscovery)
	pos := d.pos()
	tl.scanBuf = env.beacons.Neighborhood(pos, tl.scanBuf[:0])
	tl.scanCandidates += len(tl.scanBuf)
	found := tl.peerBuf[:0]
	// Candidates arrive in population order, so the per-candidate RSSI
	// draws consume this device's RNG stream in a partition-independent
	// sequence.
	for i := range tl.scanBuf {
		b := &tl.scanBuf[i]
		if !b.Accepting || b.Order == d.order {
			continue
		}
		dist := pos.Dist(b.Pos)
		if !env.radio.InRange(dist) {
			continue
		}
		rssi := env.radio.MeasureRSSI(dist, d.rng)
		found = append(found, d2d.PeerInfo{
			ID:           b.ID,
			RSSI:         rssi,
			EstDistance:  env.radio.EstimateDistance(rssi),
			Intent:       b.Intent,
			FreeCapacity: b.FreeCapacity,
		})
	}
	tl.peerBuf = found
	slices.SortFunc(found, d2d.ByEstDistance)
	return found
}

// Connect forms a group with the relay: the initiator pays its connection
// energy now; the responder's discovery + connection phases are billed
// when the op is applied on its tile. Reconnecting to the current relay
// reuses the open link, with no charges — as in d2d.Connect.
func (d *pdevice) Connect(peer hbmsg.DeviceID) (device.Link, error) {
	relay := d.env.orderOf[peer]
	if l := d.link; l != nil && l.open && l.relay == relay {
		return l, nil
	}
	d.ledger.Add(energy.PhaseConnection, d.env.model.UEConnection)
	d.sendOp(parOp{dst: relay, kind: opConnect})
	d.link = &parLink{ue: d, relay: relay, open: true}
	return d.link, nil
}

// parLink is a UE's end of a windowed link. The relay's position and
// advertised capacity are its boundary snapshot — possibly up to one
// window stale, the windowed model's analogue of beacon lag. Nothing on
// the relay's side can close it, so feedback needs no link at all.
type parLink struct {
	ue        *pdevice
	relay     int // population order
	open      bool
	transfers int // heartbeats forwarded over this link
}

func (l *parLink) Open() bool { return l.open }

func (l *parLink) Close() { l.open = false }

func (l *parLink) Distance() float64 {
	return l.ue.pos().Dist(l.ue.env.snap[l.relay].pos)
}

func (l *parLink) PeerFree() int { return l.ue.env.snap[l.relay].free }

func (l *parLink) PeerID() hbmsg.DeviceID { return l.ue.env.devices[l.relay].id }

// Send judges the transfer here — range gate, sender charge, then the loss
// draw from the UE's own stream — and queues the relay's half.
func (l *parLink) Send(hb hbmsg.Heartbeat) error {
	d := l.ue
	dist := l.Distance()
	if !d.env.radio.InRange(dist) {
		l.open = false
		return fmt.Errorf("%w: %.1fm", d2d.ErrOutOfRange, dist)
	}
	d.ledger.Add(energy.PhaseD2DSend, d.env.model.D2DSendCharge(hb.Size, dist))
	if !d.env.radio.TransferOK(dist, d.rng) {
		return fmt.Errorf("%w at %.1fm", d2d.ErrTransferFailed, dist)
	}
	// The receiver's recv charge depends on the link distance and on
	// whether this is the first transfer of the link's round — both known
	// only here, so the op carries the computed charge.
	charge := d.env.model.D2DRecvCharge(hb.Size, dist, l.transfers == 0)
	l.transfers++
	d.sendOp(parOp{dst: l.relay, kind: opForward, hb: hb, charge: charge})
	return nil
}

// ---------------------------------------------------------------------------
// Relay side

// Advertise only latches that the relay is on the air: the boundary hook
// samples Relay.Advertised itself, so what a snapshot says is the relay's
// state at the boundary, not at its last change.
func (d *pdevice) Advertise(int, int) { d.beaconing = true }

func (d *pdevice) Shutdown() { d.beaconing = false }

// Ack queues one feedback ack. The transfer is judged against the relay's
// live position and the source's snapshot — range and loss draw from the
// relay's own stream. Return paths are the source devices themselves.
func (d *pdevice) Ack(via device.ReturnPath, ref d2d.AckRef) error {
	src := via.(*pdevice).order
	dist := d.pos().Dist(d.env.snap[src].pos)
	if !d.env.radio.InRange(dist) || !d.env.radio.TransferOK(dist, d.rng) {
		return d2d.ErrTransferFailed
	}
	d.sendOp(parOp{dst: src, kind: opAck, ref: ref})
	return nil
}

// applyOp lands one inbound boundary op on the destination device.
func (d *pdevice) applyOp(op *parOp) {
	switch op.kind {
	case opConnect:
		// The responder's discovery and connection phases, billed at
		// formation as in d2d.Connect.
		d.ledger.Add(energy.PhaseDiscovery, d.env.model.RelayDiscovery)
		d.ledger.Add(energy.PhaseConnection, d.env.model.RelayConnection)
	case opForward:
		// The receive energy is charged before the policy decision, as the
		// sequential link charges the receiver before invoking its handler.
		d.ledger.Add(energy.PhaseD2DRecv, op.charge)
		d.relay.Receive(op.hb, d.env.devices[op.src])
	case opAck:
		d.ue.OnAck(op.ref)
	}
}
