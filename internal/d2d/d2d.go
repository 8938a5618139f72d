// Package d2d implements the device-to-device substrate the prototype built
// on Android Wi-Fi Direct: peer discovery with signal-strength ranking,
// group-owner negotiation via the groupOwnerIntent value, link establishment
// and message transfer with distance-dependent failures. Energy for each
// phase is charged to the participating devices' ledgers using the
// paper-calibrated model (Table III).
package d2d

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"d2dhb/internal/energy"
	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/radio"
	"d2dhb/internal/simtime"
)

// Errors returned by discovery, connection and transfer operations.
var (
	ErrUnknownPeer    = errors.New("d2d: unknown peer")
	ErrOutOfRange     = errors.New("d2d: peer out of range")
	ErrNotAccepting   = errors.New("d2d: peer not accepting connections")
	ErrLinkClosed     = errors.New("d2d: link closed")
	ErrTransferFailed = errors.New("d2d: transfer failed")
	ErrDuplicateID    = errors.New("d2d: duplicate device id")
)

// Role distinguishes the two framework roles a device can take
// (Section III-A). Discovery and connection energy differ by role
// (Table III).
type Role int

// Device roles.
const (
	RoleUE Role = iota + 1
	RoleRelay
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleUE:
		return "ue"
	case RoleRelay:
		return "relay"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// MaxGroupOwnerIntent is Wi-Fi Direct's maximum groupOwnerIntent value; the
// prototype sets it for relays initially and 0 for UEs (Section IV-C).
const MaxGroupOwnerIntent = 15

// IntentForLoad returns the advertised group-owner intent for a relay at
// the given collected-message load: the prototype "reduce[s]
// groupOwnerIntend proportionally until 0 while relay collects heartbeat
// messages".
func IntentForLoad(load, capacity int) int {
	if capacity <= 0 || load >= capacity {
		return 0
	}
	if load < 0 {
		load = 0
	}
	return MaxGroupOwnerIntent * (capacity - load) / capacity
}

// PeerInfo is one discovery result: what a scanning UE learns about a
// nearby relay.
type PeerInfo struct {
	ID hbmsg.DeviceID
	// RSSI is the measured signal strength in dBm, including shadowing.
	RSSI float64
	// EstDistance is the distance estimate inverted from RSSI; the UE
	// ranks candidates by it ("match the available relay, with the
	// shortest distance").
	EstDistance float64
	// Intent is the peer's advertised group-owner intent.
	Intent int
	// FreeCapacity is how many more heartbeats the peer advertises it can
	// collect this period.
	FreeCapacity int
}

// Config parameterizes a Medium.
type Config struct {
	Profile radio.Profile
	Model   energy.Model
}

// Medium is the shared radio environment: every Node joined to the same
// Medium can discover and connect to the others, subject to range.
//
// Discovery is served by a uniform-grid spatial index with cell size equal to
// the radio range, so a Scan visits only the 5x5 (3x3 when nothing moves)
// cell neighbourhood around the scanner instead of the whole population.
// Nodes are classified at Join: static mobilities are binned once,
// geo.SpeedLimited movers are re-binned lazily from a FIFO whose refresh
// interval bounds their binned-position staleness to one cell, and mobilities
// with no speed bound stay on a linear fallback list. Grid candidates are
// re-sorted into join order before any RSSI draw, so seeded runs are
// bit-identical to the plain linear scan.
type Medium struct {
	sched   *simtime.Scheduler
	profile radio.Ranged // range gates compare against MaxRange computed once
	model   energy.Model
	nodes   map[hbmsg.DeviceID]*Node

	cellSize   float64 // grid cell edge = radio range
	grid       map[cellKey][]*Node
	unbounded  []*Node       // mobilities without a speed bound: always scanned
	moverQueue []*Node       // speed-limited movers, FIFO by binnedAt
	moverHead  int           // queue start (popped entries are re-appended)
	maxSpeed   float64       // fastest MaxSpeed seen among movers
	rebinEvery time.Duration // staleness bound: cellSize / maxSpeed
	scratch    []*Node       // reusable Scan candidate buffer
	found      []PeerInfo    // reusable Scan result buffer
}

// cellKey addresses one grid cell: floor(position / cellSize) per axis.
type cellKey struct {
	cx, cy int32
}

// NewMedium builds a Medium on the given scheduler.
func NewMedium(sched *simtime.Scheduler, cfg Config) (*Medium, error) {
	if sched == nil {
		return nil, errors.New("d2d: nil scheduler")
	}
	if err := cfg.Profile.Validate(); err != nil {
		return nil, fmt.Errorf("d2d: profile: %w", err)
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, fmt.Errorf("d2d: model: %w", err)
	}
	profile := cfg.Profile.Ranged()
	return &Medium{
		sched:    sched,
		profile:  profile,
		model:    cfg.Model,
		nodes:    make(map[hbmsg.DeviceID]*Node),
		cellSize: profile.MaxRange(),
		grid:     make(map[cellKey][]*Node),
	}, nil
}

// Grow makes room for n more nodes, so a caller that knows its population
// joins it without growing the medium's table.
func (m *Medium) Grow(n int) {
	nodes := make(map[hbmsg.DeviceID]*Node, len(m.nodes)+n)
	maps.Copy(nodes, m.nodes)
	m.nodes = nodes
}

// Profile returns the radio profile of the medium.
func (m *Medium) Profile() radio.Profile { return m.profile.Profile }

// Join registers a device on the medium. The ledger receives the device's
// D2D energy charges.
func (m *Medium) Join(id hbmsg.DeviceID, role Role, mob geo.Mobility, ledger *energy.Ledger) (*Node, error) {
	if id == "" {
		return nil, errors.New("d2d: empty device id")
	}
	if mob == nil {
		return nil, errors.New("d2d: nil mobility")
	}
	if ledger == nil {
		return nil, errors.New("d2d: nil ledger")
	}
	if role != RoleUE && role != RoleRelay {
		return nil, fmt.Errorf("d2d: invalid role %d", int(role))
	}
	if _, ok := m.nodes[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	n := &Node{
		id:       id,
		role:     role,
		medium:   m,
		mob:      mob,
		ledger:   ledger,
		orderIdx: len(m.nodes),
	}
	if role == RoleRelay {
		n.intent = MaxGroupOwnerIntent
	}
	m.nodes[id] = n
	m.index(n)
	return n, nil
}

// index classifies a freshly joined node for the discovery grid. Mobility
// models that advertise a speed bound are binned (and re-binned lazily when
// the bound is positive); anything else lands on the linear fallback list.
func (m *Medium) index(n *Node) {
	sl, ok := n.mob.(geo.SpeedLimited)
	if !ok || m.cellSize <= 0 {
		m.unbounded = append(m.unbounded, n)
		return
	}
	now := m.sched.Now()
	m.addToCell(n, m.cellOf(n.mob.Pos(now)))
	if v := sl.MaxSpeed(); v > 0 {
		if v > m.maxSpeed {
			m.maxSpeed = v
			m.rebinEvery = time.Duration(m.cellSize / v * float64(time.Second))
			if m.rebinEvery <= 0 {
				m.rebinEvery = 1 // pathological speed: re-bin every event
			}
		}
		n.binnedAt = now
		m.moverQueue = append(m.moverQueue, n)
	}
}

// cellOf maps a position to its grid cell.
func (m *Medium) cellOf(p geo.Point) cellKey {
	return cellKey{
		cx: int32(math.Floor(p.X / m.cellSize)),
		cy: int32(math.Floor(p.Y / m.cellSize)),
	}
}

// addToCell appends n to the bucket of cell key.
func (m *Medium) addToCell(n *Node, key cellKey) {
	bucket := m.grid[key]
	n.cell = key
	n.cellSlot = len(bucket)
	m.grid[key] = append(bucket, n)
}

// removeFromCell swap-deletes n from its bucket. Bucket order is not
// meaningful — Scan re-sorts candidates into join order.
func (m *Medium) removeFromCell(n *Node) {
	bucket := m.grid[n.cell]
	last := len(bucket) - 1
	moved := bucket[last]
	bucket[n.cellSlot] = moved
	moved.cellSlot = n.cellSlot
	bucket[last] = nil
	if last == 0 {
		delete(m.grid, n.cell)
		return
	}
	m.grid[n.cell] = bucket[:last]
}

// refreshGrid re-bins movers whose binned position may have drifted by more
// than one cell. The FIFO is ordered by binnedAt (re-binned nodes go to the
// back with a fresh stamp, so the order stays monotonic) and the refresh
// interval is cellSize over the fastest mover's bound: any peer still binned
// is within one cell of its true position, which the 5x5 neighbourhood query
// absorbs.
func (m *Medium) refreshGrid() {
	if m.moverHead >= len(m.moverQueue) {
		return
	}
	now := m.sched.Now()
	for m.moverHead < len(m.moverQueue) {
		n := m.moverQueue[m.moverHead]
		if now-n.binnedAt < m.rebinEvery {
			break
		}
		m.moverHead++
		n.binnedAt = now
		if key := m.cellOf(n.mob.Pos(now)); key != n.cell {
			m.removeFromCell(n)
			m.addToCell(n, key)
		}
		m.moverQueue = append(m.moverQueue, n)
	}
	// Compact the consumed queue prefix once it dominates the slice.
	if m.moverHead > 64 && m.moverHead*2 >= len(m.moverQueue) {
		kept := copy(m.moverQueue, m.moverQueue[m.moverHead:])
		clear(m.moverQueue[kept:])
		m.moverQueue = m.moverQueue[:kept]
		m.moverHead = 0
	}
}

// Node is one device's D2D adapter.
type Node struct {
	id     hbmsg.DeviceID
	role   Role
	medium *Medium
	mob    geo.Mobility
	ledger *energy.Ledger

	accepting bool
	// The advertised free capacity (at most M) and intent (at most 15) are
	// kept in 32 bits each, which keeps a Node in the 144-byte size class.
	freeCapacity int32
	intent       int32

	// Discovery-index bookkeeping, owned by the Medium.
	orderIdx int           // join order; candidate sort key for RNG stability
	cell     cellKey       // current grid cell (binned nodes only)
	cellSlot int           // position within the cell bucket
	binnedAt time.Duration // when the cell was last computed (movers only)

	// links are the node's open links, one per peer: a UE holds one at a
	// time, so a slice scanned by peer costs less than a table per node.
	links   []*Link
	receive func(hb hbmsg.Heartbeat, link *Link)
	ack     func(ref AckRef, link *Link)
}

// ID returns the device id.
func (n *Node) ID() hbmsg.DeviceID { return n.id }

// Pos returns the device's current position.
func (n *Node) Pos() geo.Point { return n.mob.Pos(n.medium.sched.Now()) }

// SetAccepting controls whether the node answers discovery and accepts
// connections (relays only, in practice).
func (n *Node) SetAccepting(accepting bool) { n.accepting = accepting }

// Advertise updates the relay's advertised free capacity and group-owner
// intent.
func (n *Node) Advertise(freeCapacity, intent int) {
	n.freeCapacity = int32(min(max(freeCapacity, 0), math.MaxInt32))
	n.intent = int32(min(max(intent, 0), MaxGroupOwnerIntent))
}

// Advertised returns the node's currently advertised free capacity and
// group-owner intent. Group members observe the owner's beacons, so a
// connected UE can read this without a rescan.
func (n *Node) Advertised() (freeCapacity, intent int) {
	return int(n.freeCapacity), int(n.intent)
}

// OnReceive registers the handler invoked for every heartbeat delivered to
// this node over any link.
func (n *Node) OnReceive(h func(hb hbmsg.Heartbeat, link *Link)) { n.receive = h }

// Links returns the node's open links in deterministic (peer id) order.
func (n *Node) Links() []*Link {
	out := slices.Clone(n.links)
	slices.SortFunc(out, func(a, b *Link) int { return cmp.Compare(a.Peer(n).id, b.Peer(n).id) })
	return out
}

// linkTo returns the node's open link to peer, or nil.
func (n *Node) linkTo(peer hbmsg.DeviceID) *Link {
	for _, l := range n.links {
		if l.Peer(n).id == peer {
			return l
		}
	}
	return nil
}

// dropLink removes l from the node's open links.
func (n *Node) dropLink(l *Link) {
	if i := slices.Index(n.links, l); i >= 0 {
		n.links = slices.Delete(n.links, i, i+1)
	}
}

// Scan performs a D2D discovery: it returns every accepting peer in radio
// range, ranked nearest-first by RSSI-estimated distance. The scanning
// device is charged its discovery energy. Responding peers are not charged
// here: beacon responses ride the idle baseline, and the relay's measured
// discovery energy (Table III, slightly below the initiator's) is
// attributed at group formation in Connect — otherwise every bystander scan
// in a crowd would bill each relay a full discovery phase.
//
// The result lives in a buffer the medium owns: it is valid until the next
// Scan on any node of the same medium, so a caller that keeps it past that
// copies it.
func (n *Node) Scan() []PeerInfo {
	m := n.medium
	n.chargeDiscovery(n.role)
	m.refreshGrid()

	// Collect candidates from the scanner's cell neighbourhood plus the
	// unbounded fallback list. A binned mover can be up to one cell from its
	// binned position and an in-range peer up to one cell (= one range) from
	// the scanner, so radius 2 covers every possible in-range peer; with no
	// movers binned positions are exact and radius 1 suffices.
	pos := n.Pos()
	cands := m.scratch[:0]
	center := m.cellOf(pos)
	r := int32(1)
	if len(m.moverQueue)-m.moverHead > 0 {
		r = 2
	}
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			cands = append(cands, m.grid[cellKey{cx: center.cx + dx, cy: center.cy + dy}]...)
		}
	}
	cands = append(cands, m.unbounded...)

	// The RNG draw sequence must match a full linear scan bit for bit:
	// restore join order before filtering, then draw RSSI only for peers
	// that pass the same range gate.
	slices.SortFunc(cands, func(a, b *Node) int { return a.orderIdx - b.orderIdx })

	found := m.found[:0]
	for _, peer := range cands {
		if peer == n || !peer.accepting {
			continue
		}
		d := pos.Dist(peer.Pos())
		if !m.profile.InRange(d) {
			continue
		}
		rssi := m.profile.MeasureRSSI(d, m.sched.Rand())
		found = append(found, PeerInfo{
			ID:           peer.id,
			RSSI:         rssi,
			EstDistance:  m.profile.EstimateDistance(rssi),
			Intent:       int(peer.intent),
			FreeCapacity: int(peer.freeCapacity),
		})
	}
	m.scratch, m.found = cands[:0], found
	slices.SortFunc(found, ByEstDistance)
	return found
}

// ByEstDistance orders discovery results nearest-first by estimated
// distance, ties broken by id — the ranking every Scan returns.
func ByEstDistance(a, b PeerInfo) int {
	if c := cmp.Compare(a.EstDistance, b.EstDistance); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

func (n *Node) chargeDiscovery(role Role) {
	if role == RoleRelay {
		n.ledger.Add(energy.PhaseDiscovery, n.medium.model.RelayDiscovery)
		return
	}
	n.ledger.Add(energy.PhaseDiscovery, n.medium.model.UEDiscovery)
}

// Connect establishes a D2D link with peer. The initiator is the group
// client (UE, intent 0); the responder must advertise a higher group-owner
// intent and be accepting. Both sides are charged their connection energy
// (Table III). A refusal by a known peer is the bare ErrNotAccepting or
// ErrOutOfRange: in a crowd most scans end in one, and no caller reads more
// than which one, so it costs no allocation.
func (n *Node) Connect(peer hbmsg.DeviceID) (*Link, error) {
	m := n.medium
	p, ok := m.nodes[peer]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPeer, peer)
	}
	if !p.accepting {
		return nil, ErrNotAccepting
	}
	if !m.profile.InRange(n.Pos().Dist(p.Pos())) {
		return nil, ErrOutOfRange
	}
	if l := n.linkTo(peer); l != nil {
		return l, nil // already connected
	}

	n.chargeConnection(n.role)
	// The responder's discovery phase (listen + probe responses for this
	// pairing) is billed here, at group formation.
	p.chargeDiscovery(p.role)
	p.chargeConnection(p.role)

	l := &Link{
		medium:    m,
		initiator: n,
		responder: p,
		open:      true,
	}
	n.links = append(n.links, l)
	p.links = append(p.links, l)
	return l, nil
}

func (n *Node) chargeConnection(role Role) {
	if role == RoleRelay {
		n.ledger.Add(energy.PhaseConnection, n.medium.model.RelayConnection)
		return
	}
	n.ledger.Add(energy.PhaseConnection, n.medium.model.UEConnection)
}

// Link is an established D2D connection between an initiating UE and a
// responding relay.
type Link struct {
	medium    *Medium
	initiator *Node // UE side
	responder *Node // relay side
	open      bool
	transfers int
}

// Initiator returns the UE-side node.
func (l *Link) Initiator() *Node { return l.initiator }

// Responder returns the relay-side node.
func (l *Link) Responder() *Node { return l.responder }

// Open reports whether the link is usable.
func (l *Link) Open() bool { return l.open }

// Transfers returns how many successful transfers crossed the link.
func (l *Link) Transfers() int { return l.transfers }

// Distance returns the current physical separation of the endpoints.
func (l *Link) Distance() float64 {
	return l.initiator.Pos().Dist(l.responder.Pos())
}

// Peer returns the opposite endpoint of n on this link.
func (l *Link) Peer(n *Node) *Node {
	if l.initiator == n {
		return l.responder
	}
	return l.initiator
}

// Send transfers a heartbeat from `from` to the opposite endpoint. The
// sender is charged D2D send energy and the receiver recv energy; the first
// transfer over a link carries the group wake-up cost (Table IV). Transfers
// fail with ErrOutOfRange when mobility carried the peers apart (the link
// closes) or ErrTransferFailed on a distance-dependent loss (the link stays
// up; the caller may retry or fall back to cellular).
func (l *Link) Send(from *Node, hb hbmsg.Heartbeat) error {
	if !l.open {
		return ErrLinkClosed
	}
	if from != l.initiator && from != l.responder {
		return fmt.Errorf("d2d: node %s not an endpoint", from.id)
	}
	m := l.medium
	d := l.Distance()
	if !m.profile.InRange(d) {
		l.Close()
		return fmt.Errorf("%w: %.1fm", ErrOutOfRange, d)
	}
	to := l.Peer(from)

	// The radio spends energy on the attempt whether or not it succeeds.
	from.ledger.Add(energy.PhaseD2DSend, m.model.D2DSendCharge(hb.Size, d))
	if !m.profile.TransferOK(d, m.sched.Rand()) {
		return fmt.Errorf("%w: at %.1fm", ErrTransferFailed, d)
	}
	to.ledger.Add(energy.PhaseD2DRecv, m.model.D2DRecvCharge(hb.Size, d, l.transfers == 0))
	l.transfers++
	if to.receive != nil {
		to.receive(hb, l)
	}
	return nil
}

// TransferTime returns the link-layer latency for a message of the given
// size.
func (l *Link) TransferTime(sizeBytes int) time.Duration {
	return l.medium.profile.TransferTime(sizeBytes)
}

// Close tears the link down on both endpoints.
func (l *Link) Close() {
	if !l.open {
		return
	}
	l.open = false
	l.initiator.dropLink(l)
	l.responder.dropLink(l)
}
