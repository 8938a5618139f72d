package experiments

import (
	"time"

	"d2dhb/internal/core"
	"d2dhb/internal/energy"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/metrics"
)

// BatteryShareResult reproduces the paper's motivating battery claim
// (Section I): the daily battery share one IM app's heartbeats consume,
// with and without the D2D framework.
type BatteryShareResult struct {
	// OriginalDailyShare is the battery fraction burned per day by direct
	// cellular heartbeats (paper: "at least 6%").
	OriginalDailyShare float64
	// UEDailyShare is the same device forwarding through a relay.
	UEDailyShare float64
	Table        *metrics.Table
}

// BatteryShare runs one WeChat-like device for 24 hours as the original
// system and as a relayed UE, converting energy into Galaxy S4 battery
// fractions.
func BatteryShare(seed int64) (*BatteryShareResult, error) {
	profile := hbmsg.WeChat()
	battery := energy.GalaxyS4Battery()

	// The same device forwarding through a relay at 1 m, and as the
	// original system, where every heartbeat is a cellular transmission.
	opts := core.Options{Seed: seed, Duration: 24 * time.Hour}
	m, err := pair{opts: opts, profile: profile, ues: 1, distance: 1, capacity: 8}.measure(nil)
	if err != nil {
		return nil, err
	}

	res := &BatteryShareResult{
		OriginalDailyShare: battery.DrainFraction(energy.MicroAmpHours(m.origE)),
		UEDailyShare:       battery.DrainFraction(energy.MicroAmpHours(m.ueE)),
	}
	t := metrics.NewTable(
		"Daily battery share of one IM app's heartbeats (Galaxy S4, WeChat)",
		"path", "energy (µAh/day)", "battery share")
	t.AddRow("original (cellular)", metrics.F(m.origE), metrics.Pct(res.OriginalDailyShare))
	t.AddRow("UE via relay (D2D)", metrics.F(m.ueE), metrics.Pct(res.UEDailyShare))
	res.Table = t
	return res, nil
}
