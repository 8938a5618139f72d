package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"time"

	"d2dhb/internal/cluster"
	"d2dhb/internal/d2d"
	"d2dhb/internal/energy"
	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/presence"
	"d2dhb/internal/radio"
	"d2dhb/internal/relaynet"
	"d2dhb/internal/sched"
	"d2dhb/internal/simtime"
)

// Per-layer probes: each times calls into one module's public functions at
// the sizes the workloads use, from the benchmark's side of the API. The
// costs do not depend on the workload; the attribution table multiplies
// them by the operation counts a pass reports.

// nsPer runs f n times and returns the mean wall nanoseconds per call.
func nsPer(n int, f func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// probeSimtime is simtime.ns_per_event: one Step plus the re-arming After,
// with 10 k timers pending throughout.
func probeSimtime() (float64, error) {
	const pending, events = 10_000, 1_000_000
	s := simtime.NewScheduler(1)
	var ferr error
	for i := 0; i < pending; i++ {
		var tick func()
		tick = func() {
			if _, err := s.After(10*time.Millisecond, tick); err != nil {
				ferr = err
			}
		}
		if _, err := s.At(time.Duration(i+1)*time.Microsecond, tick); err != nil {
			return 0, err
		}
	}
	ns := nsPer(events, func() { s.Step() })
	return ns, ferr
}

// probeScan is d2d.scan_us: Medium.Scan from UEs in a 10 k-node city
// (10 % accepting relays, a quarter of all nodes walking). The clock
// advances 50 ms between scans, the city workloads' own scan spacing
// (~20 scans per simulated second), so the grid re-bins movers as often as
// it does there.
func probeScan() (float64, error) {
	const nodes, scans = 10_000, 1_500
	s := simtime.NewScheduler(1)
	m, err := d2d.NewMedium(s, d2d.Config{Profile: radio.WiFiDirectProfile(), Model: energy.DefaultModel()})
	if err != nil {
		return 0, err
	}
	area := geo.Square(math.Sqrt(nodes * 100))
	rng := s.Rand()
	var scanners []*d2d.Node
	for i := 0; i < nodes; i++ {
		p := area.RandomPoint(rng)
		var mob geo.Mobility = geo.Static{P: p}
		if i%4 == 0 {
			if mob, err = geo.NewRandomWaypoint(area, p, 0.5, 2, 20*time.Second, int64(i)); err != nil {
				return 0, err
			}
		}
		role := d2d.RoleUE
		if i%10 == 0 {
			role = d2d.RoleRelay
		}
		n, err := m.Join(hbmsg.DeviceID(fmt.Sprintf("n-%05d", i)), role, mob, energy.NewLedger())
		if err != nil {
			return 0, err
		}
		if role == d2d.RoleRelay {
			n.SetAccepting(true)
			n.Advertise(8, d2d.MaxGroupOwnerIntent)
		} else if len(scanners) < 64 {
			scanners = append(scanners, n)
		}
	}
	var total time.Duration
	for i := 0; i < scans; i++ {
		if err := s.RunUntil(s.Now() + 50*time.Millisecond); err != nil {
			return 0, err
		}
		t := time.Now()
		scanners[i%len(scanners)].Scan()
		total += time.Since(t)
	}
	return float64(total.Microseconds()) / scans, nil
}

// probeBeacons is d2d.beacon_rebuild_ms and d2d.neighborhood_ns at the
// city's 1 000 relays.
func probeBeacons() (rebuildMs, neighborNs float64, err error) {
	const relays = 1_000
	x, err := d2d.NewBeaconIndex(radio.WiFiDirectProfile().MaxRange())
	if err != nil {
		return 0, 0, err
	}
	area := geo.Square(1000)
	rng := rand.New(rand.NewSource(1))
	beacons := make([]d2d.Beacon, relays)
	for i := range beacons {
		beacons[i] = d2d.Beacon{
			ID: hbmsg.DeviceID(fmt.Sprintf("relay-%05d", i)), Order: i, Pos: area.RandomPoint(rng),
			Accepting: true, FreeCapacity: 8, Intent: d2d.MaxGroupOwnerIntent,
		}
	}
	x.Rebuild(beacons)
	rebuildMs = nsPer(500, func() { x.Rebuild(beacons) }) / 1e6
	points := make([]geo.Point, 4096)
	for i := range points {
		points[i] = area.RandomPoint(rng)
	}
	var buf []d2d.Beacon
	i := 0
	neighborNs = nsPer(100_000, func() {
		buf = x.Neighborhood(points[i%len(points)], buf[:0])
		i++
	})
	return rebuildMs, neighborNs, nil
}

// probeNagle times Algorithm 1 with capacity m filling to fill heartbeats a
// period: collect is the mean Collect call, flushPerHB the Flush call
// spread over the heartbeats it drains.
func probeNagle(m, fill, periods int) (collect, flushPerHB float64, err error) {
	const period = time.Second
	n, err := sched.NewNagle(m, period)
	if err != nil {
		return 0, 0, err
	}
	hb := hbmsg.Heartbeat{App: "probe", Src: "ue", Expiry: 2 * period}
	var cerr error
	cycle := func(flush bool) func() {
		at := time.Duration(0)
		return func() {
			n.StartPeriod(at)
			hb.Origin = at
			for i := 0; i < fill; i++ {
				hb.Seq++
				if _, err := n.Collect(hb, at); err != nil {
					cerr = err
				}
			}
			if flush {
				n.Flush(at)
			}
			at += period
		}
	}
	fillOnly := nsPer(periods, cycle(false))
	withFlush := nsPer(periods, cycle(true))
	return fillOnly / float64(fill), max(withFlush-fillOnly, 0) / float64(fill), cerr
}

// codecCosts is the hbproto probe result.
type codecCosts struct {
	encHB, decHB           float64
	encBatch32, decBatch32 float64 // per heartbeat
	encBatch4k, decBatch4k float64 // per heartbeat
	allocsPerFrame         float64 // single-heartbeat encode + decode
}

func probeCodec() (codecCosts, error) {
	origin := time.Now()
	mkBatch := func(n int) *hbproto.Batch {
		b := &hbproto.Batch{Relay: "probe-relay", HBs: make([]hbproto.Heartbeat, n)}
		for i := range b.HBs {
			b.HBs[i] = hbproto.Heartbeat{
				Src: fmt.Sprintf("loadue-%07d", i), Seq: uint64(i + 1), App: "WeChat",
				Origin: origin, Expiry: 270 * time.Second, Pad: 74,
			}
		}
		return b
	}
	var ferr error
	encode := func(msg hbproto.Message, iters int) float64 {
		buf, err := hbproto.AppendFrame(nil, msg)
		if err != nil {
			ferr = err
			return 0
		}
		return nsPer(iters, func() {
			if _, err := hbproto.AppendFrame(buf[:0], msg); err != nil {
				ferr = err
			}
		})
	}
	decode := func(msg hbproto.Message, iters int) float64 {
		frame, err := hbproto.AppendFrame(nil, msg)
		if err != nil {
			ferr = err
			return 0
		}
		r := bytes.NewReader(frame)
		fr := hbproto.NewFrameReader(r)
		next := func() {
			r.Reset(frame)
			if _, err := fr.Next(); err != nil {
				ferr = err
			}
		}
		next() // sizes the reader's scratch and interns the strings
		return nsPer(iters, next)
	}
	hb := &mkBatch(1).HBs[0]
	var c codecCosts
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.encHB, c.decHB = encode(hb, 300_000), decode(hb, 300_000)
	runtime.ReadMemStats(&after)
	c.allocsPerFrame = float64(after.Mallocs-before.Mallocs) / 600_000
	b32, b4k := mkBatch(32), mkBatch(4096)
	c.encBatch32, c.decBatch32 = encode(b32, 20_000)/32, decode(b32, 20_000)/32
	c.encBatch4k, c.decBatch4k = encode(b4k, 200)/4096, decode(b4k, 200)/4096
	return c, ferr
}

// serverCosts is the relaynet.Server probe result.
type serverCosts struct {
	singleUs, batchUs, connSetupUs float64
}

// probeServer drives one relaynet.Server with the benchmark's own raw TCP
// clients writing pre-encoded frames and reading acks. The per-heartbeat
// figures are process CPU, so they include the raw client's own write and
// read — the floor any client pays — which is why loadgen.generator_share
// reads as "CPU beyond a bare socket client".
func probeServer() (serverCosts, error) {
	var c serverCosts
	srv := relaynet.NewServer()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return c, err
	}
	defer srv.Shutdown()
	origin := time.Now()
	var encErr error // first failure to encode one of the probe's own frames
	frame := func(msg hbproto.Message) []byte {
		b, err := hbproto.AppendFrame(nil, msg)
		if err != nil && encErr == nil {
			encErr = err
		}
		return b
	}

	// Connection set-up: sequential dials until the server has accepted all.
	const conns = 400
	t0 := time.Now()
	var open []net.Conn
	defer func() {
		for _, cn := range open {
			_ = cn.Close()
		}
	}()
	for i := 0; i < conns; i++ {
		cn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			return c, err
		}
		open = append(open, cn)
	}
	for srv.Stats().Connections < conns {
		time.Sleep(50 * time.Microsecond)
	}
	c.connSetupUs = float64(time.Since(t0).Microseconds()) / conns

	// Single frames: 32 connections in lock-step ping-pong, one heartbeat
	// and one ack per connection per round, like socket-per-UE clients.
	const width, rounds = 32, 400
	readers := make([]*hbproto.FrameReader, width)
	for i := range readers {
		readers[i] = hbproto.NewFrameReader(open[i])
	}
	frames := make([][]byte, width*rounds)
	for r := 0; r < rounds; r++ {
		for i := 0; i < width; i++ {
			frames[r*width+i] = frame(&hbproto.Heartbeat{
				Src: fmt.Sprintf("probe-ue-%02d", i), Seq: uint64(r + 1), App: "WeChat",
				Origin: origin, Expiry: time.Hour, Pad: 74,
			})
		}
	}
	if encErr != nil {
		return c, encErr
	}
	cpu0 := cpuTime()
	for r := 0; r < rounds; r++ {
		for i := 0; i < width; i++ {
			if _, err := open[i].Write(frames[r*width+i]); err != nil {
				return c, err
			}
		}
		for i := 0; i < width; i++ {
			if _, err := readers[i].Next(); err != nil {
				return c, err
			}
		}
	}
	c.singleUs = float64((cpuTime() - cpu0).Microseconds()) / (width * rounds)

	// Batches: one connection, 1 024-heartbeat Batch frames back to back,
	// acks counted until every heartbeat is acknowledged.
	const perBatch, batches = 1024, 150
	b := &hbproto.Batch{Relay: "probe-trunk", HBs: make([]hbproto.Heartbeat, perBatch)}
	var wire []byte
	for r := 0; r < batches; r++ {
		for i := range b.HBs {
			b.HBs[i] = hbproto.Heartbeat{
				Src: fmt.Sprintf("loadue-%07d", i), Seq: uint64(r + 1), App: "WeChat",
				Origin: origin, Expiry: time.Hour, Pad: 74,
			}
		}
		wire = append(wire, frame(b)...)
	}
	if encErr != nil {
		return c, encErr
	}
	cn, fr := open[width], hbproto.NewFrameReader(open[width])
	cpu0 = cpuTime()
	werr := make(chan error, 1)
	go func() {
		_, err := cn.Write(wire)
		werr <- err
	}()
	for acked := 0; acked < perBatch*batches; {
		msg, err := fr.Next()
		if err != nil {
			return c, err
		}
		if ack, ok := msg.(*hbproto.Ack); ok {
			acked += len(ack.Refs)
		}
	}
	if err := <-werr; err != nil {
		return c, err
	}
	c.batchUs = float64((cpuTime() - cpu0).Microseconds()) / (perBatch * batches)
	return c, nil
}

// probePresence is presence.deliver_ns: Tracker.Deliver cycling over a
// population of the given size.
func probePresence(clients int) (float64, error) {
	t := presence.NewTracker()
	ids := make([]hbmsg.DeviceID, clients)
	for i := range ids {
		ids[i] = hbmsg.DeviceID(fmt.Sprintf("loadue-%07d", i))
	}
	hb := hbmsg.Heartbeat{App: "WeChat", Expiry: 270 * time.Second}
	var ferr error
	at, i := time.Duration(0), 0
	deliver := func() {
		hb.Src = ids[i%clients]
		if err := t.Deliver(hb, at); err != nil {
			ferr = err
		}
		i++
		at += time.Microsecond
	}
	for range ids {
		deliver()
	}
	return nsPer(400_000, deliver), ferr
}

// probeRing is cluster.owner_ns and cluster.group_ns_per_key on a 3-node
// ring with the default vnode count.
func probeRing() (ownerNs, groupNsPerKey float64, err error) {
	ring, err := cluster.NewRing([]string{"shard-0", "shard-1", "shard-2"}, 0)
	if err != nil {
		return 0, 0, err
	}
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("loadue-%07d", i)
	}
	i := 0
	ownerNs = nsPer(400_000, func() {
		ring.Owner(keys[i%len(keys)])
		i++
	})
	groupNsPerKey = nsPer(60, func() { ring.GroupSorted(keys) }) / float64(len(keys))
	return ownerNs, groupNsPerKey, nil
}

// Live Algorithm 1 sizing: loadgen gives live_relayed's relays capacity
// 4·n+16 for the n relayed UEs each serves, and each collects n a period.
const (
	liveNagleFill     = relayedUEs * 9 / 10 / relayedRelays // relayedRatio = 0.9
	liveNagleCapacity = 4*liveNagleFill + 16
)

// runProbes runs every probe and returns the per-layer cost metrics.
func runProbes(spans *spanLog, parent int) (map[string]float64, error) {
	vals := make(map[string]float64)
	var firstErr error
	probe := func(name string, f func() error) {
		sp := spans.begin("probe:"+name, parent)
		if err := f(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("probe %s: %w", name, err)
		}
		spans.end(sp)
	}
	probe("simtime", func() (err error) {
		vals["simtime.ns_per_event"], err = probeSimtime()
		return err
	})
	probe("d2d.scan", func() (err error) {
		vals["d2d.scan_us"], err = probeScan()
		return err
	})
	probe("d2d.beacons", func() (err error) {
		vals["d2d.beacon_rebuild_ms"], vals["d2d.neighborhood_ns"], err = probeBeacons()
		return err
	})
	probe("sched", func() (err error) {
		if vals["sched.collect_ns_m16"], vals["sched.flush_ns_per_hb_m16"], err = probeNagle(16, 15, 40_000); err != nil {
			return err
		}
		vals["sched.collect_ns_live"], vals["sched.flush_ns_per_hb_live"], err = probeNagle(liveNagleCapacity, liveNagleFill, 600)
		return err
	})
	probe("hbproto", func() error {
		c, err := probeCodec()
		vals["hbproto.encode_hb_ns"], vals["hbproto.decode_hb_ns"] = c.encHB, c.decHB
		vals["hbproto.encode_batch_ns_per_hb_32"], vals["hbproto.decode_batch_ns_per_hb_32"] = c.encBatch32, c.decBatch32
		vals["hbproto.encode_batch_ns_per_hb_4096"], vals["hbproto.decode_batch_ns_per_hb_4096"] = c.encBatch4k, c.decBatch4k
		vals["hbproto.allocs_per_frame"] = c.allocsPerFrame
		return err
	})
	probe("relaynet.server", func() error {
		c, err := probeServer()
		vals["relaynet.server_us_per_hb_single"], vals["relaynet.server_us_per_hb_batch"] = c.singleUs, c.batchUs
		vals["relaynet.conn_setup_us"] = c.connSetupUs
		return err
	})
	probe("presence", func() (err error) {
		if vals["presence.deliver_ns_10k"], err = probePresence(10_000); err != nil {
			return err
		}
		vals["presence.deliver_ns_200k"], err = probePresence(200_000)
		return err
	})
	probe("cluster.ring", func() (err error) {
		vals["cluster.owner_ns"], vals["cluster.group_ns_per_key"], err = probeRing()
		return err
	})
	return vals, firstErr
}
