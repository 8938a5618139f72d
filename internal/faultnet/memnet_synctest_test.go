//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package faultnet

import (
	"errors"
	"os"
	"testing"
	"testing/synctest"
	"time"
)

// go.mod's go 1.22 defaults to asynchronous timer channels, which
// synctest.Run refuses: the go:debug line above turns them off here.

// TestNetworkDeadlineOnBubbleTime: a read deadline set on a connection
// inside a synctest bubble fires on the bubble's clock: 270 s of it pass,
// and no wall time.
func TestNetworkDeadlineOnBubbleTime(t *testing.T) {
	synctest.Run(func() {
		n := NewNetwork()
		ln, err := n.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Error(err)
			return
		}
		defer ln.Close()
		go func() {
			c, err := ln.Accept()
			if err == nil {
				defer c.Close()
				_, _ = c.Read(make([]byte, 1)) // until the dialer closes
			}
		}()
		c, err := n.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		start := time.Now()
		_ = c.SetReadDeadline(start.Add(270 * time.Second))
		_, err = c.Read(make([]byte, 1))
		if !errors.Is(err, os.ErrDeadlineExceeded) || time.Since(start) != 270*time.Second {
			t.Errorf("read returned %v after %v, want a deadline error at 270s", err, time.Since(start))
		}
	})
}
