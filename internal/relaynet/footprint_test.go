package relaynet

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"d2dhb/internal/hbproto"
)

// TestDirectUEFootprint pins what one connected direct UE holds on the live
// heap, its own end and the server's together, once its first heartbeat is
// acknowledged: the UE, its slot and reader, the server's connection state
// and its presence record. Socket-per-UE fleets are thousands of such
// pairs, mostly idle, so what a pair holds is what a fleet holds. Goroutine
// stacks are not on the heap and not counted. bufio's default 4 KiB read
// buffer at each end would fill the ceiling on its own.
func TestDirectUEFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the connections' footprint")
	}
	const ues, ceiling = 200, 8 << 10 // bytes per connected UE
	s := startServer(t)
	apps := []UEApp{{Name: "std", Period: time.Hour, Expiry: time.Minute, Pad: 54}}
	live := func() (heap, stack uint64) {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // a second cycle empties the pools' victim caches too
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, ms.StackInuse
	}
	heap0, stack0 := live()
	fleet := make([]*UEClient, ues)
	for i := range fleet {
		u, err := NewUEClient(UEClientConfig{ID: fmt.Sprintf("ue-%04d", i), Apps: apps, ServerAddr: s.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		fleet[i] = u
		u.Send(0, 1, time.Now())
	}
	t.Cleanup(func() {
		for _, u := range fleet {
			u.Shutdown()
		}
	})
	eventually(t, 5*time.Second, func() bool {
		for _, u := range fleet {
			if u.Stats().Acked != 1 {
				return false
			}
		}
		return true
	}, "every UE's heartbeat acknowledged")
	heap1, stack1 := live()
	per := float64(heap1-heap0) / ues
	runtime.KeepAlive(fleet)
	t.Logf("a connected direct UE holds %.0f B of live heap and %.0f B of goroutine stack, both ends",
		per, (float64(stack1)-float64(stack0))/ues)
	if per > ceiling {
		t.Errorf("a connected direct UE holds %.0f B of live heap, ceiling %d", per, ceiling)
	}
}

// sinkConn swallows writes and produces no input until it is closed.
type sinkConn struct {
	net.Conn // nil: only the methods below are ever called
	closed   chan struct{}
	once     sync.Once
}

func newSinkConn() *sinkConn { return &sinkConn{closed: make(chan struct{})} }

func (c *sinkConn) Write(b []byte) (int, error) { return len(b), nil }
func (c *sinkConn) Read([]byte) (int, error)    { <-c.closed; return 0, io.EOF }
func (c *sinkConn) Close() error                { c.once.Do(func() { close(c.closed) }); return nil }

// TestUESendZeroAllocs pins a UE's send on a connected slot at zero
// allocations, direct and through a relay: the wire heartbeat is pooled,
// the pending entry is the table's inline one and the encode buffer the
// slot's pooled one. A fleet sends thousands a second.
func TestUESendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts the race runtime's allocations")
	}
	for _, c := range []struct {
		name  string
		relay string
	}{{"direct", ""}, {"relayed", "relay"}} {
		t.Run(c.name, func(t *testing.T) {
			conn := newSinkConn()
			u, err := NewUEClient(UEClientConfig{
				ID: "ue-alloc", Apps: []UEApp{{Name: "std", Period: time.Second, Expiry: time.Second, Pad: 54}},
				RelayAddr: c.relay, ServerAddr: "server",
				Dial: func(string, string) (net.Conn, error) { return conn, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(u.Shutdown)
			ack := u.onAck
			if c.relay != "" {
				ack = u.onFeedback
			}
			refs := []hbproto.Ref{{Src: "ue-alloc"}}
			seq := uint64(0)
			send := func() {
				seq++
				now := time.Now()
				u.Send(0, seq, now)
				refs[0].Seq = seq
				ack(refs, now)
			}
			send() // connects
			const runs = 200
			if allocs := testing.AllocsPerRun(runs, send); allocs > 0 {
				t.Errorf("a %s send allocates %.2f times, want 0", c.name, allocs)
			}
			st := u.Stats()
			if sent := st.Direct + st.ViaRelay; sent != runs+2 || st.Acked != sent || u.InFlight() != 0 {
				t.Fatalf("stats = %+v, want %d sends, each acknowledged", st, runs+2)
			}
		})
	}
}
