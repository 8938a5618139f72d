package relaynet

import (
	"fmt"
	"runtime"
	"testing"
	"time"
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
