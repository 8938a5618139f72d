// Command d2drelay runs a relay agent of the real heartbeat relaying
// stack: it listens for UE connections (the "D2D side"), schedules
// collected heartbeats with Algorithm 1, and forwards aggregated batches
// to the presence server. The server is probed once at start-up, so a
// wrong -server exits 1; after that the relay dials it lazily and redials
// with backoff, and heartbeats it cannot deliver meanwhile are counted as
// dropped (their UEs fall back to the server directly).
//
// Usage:
//
//	d2drelay [-id relay-1] [-listen 127.0.0.1:7401] [-server 127.0.0.1:7400]
//	         [-period 270s] [-expiry 270s] [-capacity 8] [-report 5s]
//	         [-telemetry 127.0.0.1:7481]
//
// With -telemetry the relay exposes live scheduler and forwarding metrics
// over HTTP: /metrics, /metrics.json and /debug/pprof.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"d2dhb/internal/relaynet"
	"d2dhb/internal/telemetry"
)

func main() {
	var (
		id        = flag.String("id", "relay-1", "relay device id")
		listen    = flag.String("listen", "127.0.0.1:7401", "UE-side listen address")
		server    = flag.String("server", "127.0.0.1:7400", "presence server address")
		period    = flag.Duration("period", 270*time.Second, "own heartbeat period (scheduling window T)")
		expiry    = flag.Duration("expiry", 270*time.Second, "own heartbeat expiry")
		capacity  = flag.Int("capacity", 8, "collection capacity M")
		report    = flag.Duration("report", 5*time.Second, "stats report interval")
		telemAddr = flag.String("telemetry", "", "serve /metrics, /metrics.json and pprof on this address (empty disables)")
	)
	flag.Parse()
	if err := run(*id, *listen, *server, *period, *expiry, *capacity, *report, *telemAddr); err != nil {
		fmt.Fprintln(os.Stderr, "d2drelay:", err)
		os.Exit(1)
	}
}

func run(id, listen, server string, period, expiry time.Duration, capacity int, report time.Duration, telemAddr string) error {
	probe, err := net.DialTimeout("tcp", server, 2*time.Second)
	if err != nil {
		return fmt.Errorf("server %s unreachable: %w", server, err)
	}
	_ = probe.Close()
	var reg *telemetry.Registry
	if telemAddr != "" {
		reg = telemetry.NewRegistry()
		ts, err := telemetry.Serve(telemAddr, reg)
		if err != nil {
			return err
		}
		defer ts.Close()
		fmt.Printf("telemetry on http://%s/metrics\n", ts.Addr())
	}
	relay, err := relaynet.NewRelayAgent(relaynet.RelayAgentConfig{
		ID: id, App: "relay", Period: period, Expiry: expiry, Pad: 54, Capacity: capacity,
		Telemetry: reg,
	})
	if err != nil {
		return err
	}
	if err := relay.Start(listen, server); err != nil {
		return err
	}
	defer relay.Shutdown()
	fmt.Printf("relay %s listening on %s, upstream %s\n", id, relay.Addr(), server)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time // nil (blocks forever) when reporting is disabled
	if report > 0 {
		ticker := time.NewTicker(report)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-stop:
			fmt.Println("shutting down")
			return nil
		case <-tick:
			st := relay.Stats()
			fmt.Printf("collected=%d flushes=%d (capacity=%d deadline=%d period-end=%d) forwarded=%d credits=%d feedbacks=%d rejected=%d dropped=%d reconnects=%d routes=%d expired=%d\n",
				st.Collected, st.Flushes, st.FlushesByCapacity, st.FlushesByDeadline, st.FlushesByPeriodEnd,
				st.ForwardedSent, st.Credits, st.AcksSent, st.RejectedClosed+st.RejectedExpired,
				st.DroppedNoShard, st.UpstreamReconnects, st.Routes, st.RoutesExpired)
		}
	}
}
