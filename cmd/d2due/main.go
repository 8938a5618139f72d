// Command d2due runs a UE client of the real heartbeat relaying stack: it
// emits periodic heartbeats, forwards them through a relay when one is
// configured, and falls back to the server directly when feedback times
// out.
//
// Usage:
//
//	d2due [-id ue-1] [-relay 127.0.0.1:7401] [-server 127.0.0.1:7400]
//	      [-apps wechat,qq] [-report 5s]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"d2dhb/internal/hbmsg"
	"d2dhb/internal/relaynet"
)

func main() {
	var (
		id     = flag.String("id", "ue-1", "device id")
		relay  = flag.String("relay", "127.0.0.1:7401", "relay address (empty = direct mode)")
		server = flag.String("server", "127.0.0.1:7400", "presence server address")
		apps   = flag.String("apps", "standard", "comma-separated app profiles")
		report = flag.Duration("report", 5*time.Second, "stats report interval (0 disables)")
	)
	flag.Parse()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Stdout, *id, *relay, *server, *apps, *report, stop); err != nil {
		fmt.Fprintln(os.Stderr, "d2due:", err)
		os.Exit(1)
	}
}

// run starts the UE and writes its stats to w every report interval until
// stop delivers or is closed, then once more after shutdown, when every
// heartbeat it generated has been acknowledged or written off.
func run(w io.Writer, id, relayAddr, server, appNames string, report time.Duration, stop <-chan os.Signal) error {
	var apps []relaynet.UEApp
	for _, name := range strings.Split(appNames, ",") {
		p, err := hbmsg.ProfileByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		apps = append(apps, relaynet.UEApp{Name: p.Name, Period: p.Period, Expiry: p.Expiry(), Pad: p.Size})
	}

	ue, err := relaynet.NewUEClient(relaynet.UEClientConfig{
		ID: id, Apps: apps, RelayAddr: relayAddr, ServerAddr: server,
	})
	if err != nil {
		return err
	}
	if err := ue.Start(); err != nil {
		return err
	}
	defer ue.Shutdown()
	fmt.Fprintf(w, "ue %s (%d apps, primary %s every %v) relay=%q server=%s\n",
		id, len(apps), apps[0].Name, apps[0].Period, relayAddr, server)

	stats := func() {
		st := ue.Stats()
		fmt.Fprintf(w, "generated=%d viaRelay=%d direct=%d fallbacks=%d reconnects=%d feedback=%d acked=%d timeouts=%d\n",
			st.Generated, st.ViaRelay, st.Direct, st.FallbackResends, st.RelayReconnects, st.FeedbackAcks, st.Acked, st.Timeouts)
	}
	var tick <-chan time.Time // nil (blocks forever) when reporting is disabled
	if report > 0 {
		ticker := time.NewTicker(report)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-stop:
			fmt.Fprintln(w, "shutting down")
			ue.Shutdown()
			if report > 0 {
				stats()
			}
			return nil
		case <-tick:
			stats()
		}
	}
}
