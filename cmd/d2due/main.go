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
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"d2dhb/internal/hbmsg"
	"d2dhb/internal/relaynet"
	"d2dhb/internal/scenario"
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
	if err := run(*id, *relay, *server, *apps, *report, stop); err != nil {
		fmt.Fprintln(os.Stderr, "d2due:", err)
		os.Exit(1)
	}
}

// run starts the UE and prints its stats every report interval until stop
// delivers or is closed.
func run(id, relayAddr, server, appNames string, report time.Duration, stop <-chan os.Signal) error {
	var profiles []hbmsg.AppProfile
	for _, name := range strings.Split(appNames, ",") {
		p, err := scenario.ProfileByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		profiles = append(profiles, p)
	}
	primary := profiles[0]
	var extras []relaynet.UEApp
	for _, p := range profiles[1:] {
		extras = append(extras, relaynet.UEApp{
			Name: p.Name, Period: p.Period, Expiry: p.Expiry(), Pad: p.Size,
		})
	}

	ue, err := relaynet.NewUEClient(relaynet.UEClientConfig{
		ID: id, App: primary.Name,
		Period: primary.Period, Expiry: primary.Expiry(), Pad: primary.Size,
		ExtraApps: extras,
		RelayAddr: relayAddr, ServerAddr: server,
	})
	if err != nil {
		return err
	}
	if err := ue.Start(); err != nil {
		return err
	}
	defer ue.Shutdown()
	fmt.Printf("ue %s (%d apps, primary %s every %v) relay=%q server=%s\n",
		id, len(profiles), primary.Name, primary.Period, relayAddr, server)

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
			st := ue.Stats()
			fmt.Printf("generated=%d viaRelay=%d direct=%d fallbacks=%d acks=%d\n",
				st.Generated, st.ViaRelay, st.Direct, st.FallbackResends, st.FeedbackAcks)
		}
	}
}
