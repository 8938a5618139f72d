// Liveproto: run the real networked stack — presence server, relay agent
// and three UE clients — over loopback TCP with sped-up heartbeat periods,
// then print what each component observed. This is the same code path the
// d2dserver/d2drelay/d2due daemons run, compressed into one process.
package main

import (
	"fmt"
	"os"
	"time"

	"d2dhb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "liveproto:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		period = 200 * time.Millisecond // sped-up WeChat-style period
		expiry = 300 * time.Millisecond
	)

	server := d2dhb.NewServer()
	if err := server.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer server.Shutdown()
	fmt.Println("server:", server.Addr())

	relay, err := d2dhb.NewRelayAgent(d2dhb.RelayAgentConfig{
		ID: "relay-1", App: "demo", Period: period, Expiry: expiry, Pad: 54, Capacity: 8,
	})
	if err != nil {
		return err
	}
	if err := relay.Start("127.0.0.1:0", server.Addr()); err != nil {
		return err
	}
	defer relay.Shutdown()
	fmt.Println("relay: ", relay.Addr())

	ues := make([]*d2dhb.UEClient, 0, 3)
	for i := 1; i <= 3; i++ {
		ue, err := d2dhb.NewUEClient(d2dhb.UEClientConfig{
			ID:        fmt.Sprintf("ue-%d", i),
			Apps:      []d2dhb.UEApp{{Name: "demo", Period: period, Expiry: expiry, Pad: 54}},
			RelayAddr: relay.Addr(), ServerAddr: server.Addr(),
		})
		if err != nil {
			return err
		}
		if err := ue.Start(); err != nil {
			return err
		}
		defer ue.Shutdown()
		ues = append(ues, ue)
	}

	// Let a handful of periods elapse.
	time.Sleep(10 * period)

	st := server.Stats()
	fmt.Printf("server: %d relayed + %d direct heartbeats in %d batches, %d online now\n",
		st.HeartbeatsRelayed, st.HeartbeatsDirect, st.Batches, server.OnlineCount(time.Now()))
	rs := relay.Stats()
	fmt.Printf("relay:  collected %d, flushed %d batches, %d feedbacks, %d credits earned\n",
		rs.Collected, rs.Flushes, rs.AcksSent, rs.Credits)
	for i, ue := range ues {
		us := ue.Stats()
		fmt.Printf("ue-%d:   %d generated, %d via relay, %d direct, %d acks, %d fallbacks\n",
			i+1, us.Generated, us.ViaRelay, us.Direct, us.FeedbackAcks, us.FallbackResends)
	}
	if st.Batches == 0 {
		return fmt.Errorf("no aggregation happened")
	}
	fmt.Println("ok: heartbeats aggregated through the relay with feedback to every UE")
	return nil
}
