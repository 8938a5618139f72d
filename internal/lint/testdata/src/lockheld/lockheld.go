// Package lockheld exercises the lockheld analyzer: network IO, channel
// operations and transitively-blocking helpers under a held mutex are
// flagged; unlocked IO, goroutine launches and suppressed sites are not.
package lockheld

import (
	"net"
	"sync"
	"time"
)

type agent struct {
	mu      sync.Mutex
	conn    net.Conn
	out     chan []byte
	pending int
}

func (a *agent) flushLocked(b []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, err := a.conn.Write(b) // want `call to net\.Conn\.Write .* while a\.mu is held`
	return err
}

func (a *agent) publish(b []byte) {
	a.mu.Lock()
	a.out <- b // want `channel send while a\.mu is held`
	a.mu.Unlock()
}

func (a *agent) publishSafe(b []byte) {
	a.mu.Lock()
	a.pending++
	a.mu.Unlock()
	a.out <- b // lock released before the send
}

// backoff sleeps, so every caller holding a lock across it blocks too.
func backoff() {
	time.Sleep(time.Millisecond)
}

func (a *agent) retry() {
	a.mu.Lock()
	defer a.mu.Unlock()
	backoff() // want `call to golden\.test/lockheld\.backoff, which sleeps`
}

// poke wakes a reader if one is waiting and never waits itself, so calling
// it under a lock is fine.
func (a *agent) poke() {
	select {
	case a.out <- nil:
	default:
	}
}

func (a *agent) bump() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pending++
	a.poke()
}

func (a *agent) notifyAsync(b []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	go func() { a.out <- b }() // the spawned goroutine blocks itself, not the holder
}

func (a *agent) handshake() {
	a.mu.Lock()
	defer a.mu.Unlock()
	//lint:allow lockheld startup handshake runs before any goroutine can contend
	_, _ = a.conn.Write([]byte("hello"))
}
