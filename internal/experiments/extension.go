package experiments

import (
	"fmt"
	"time"

	"d2dhb/internal/core"
	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/metrics"
)

// ExtensionResult measures the framework applied to all of a device's
// periodic traffic — heartbeats plus the diagnostics and advertisement
// refreshes the paper's conclusion proposes as further candidates.
type ExtensionResult struct {
	// HeartbeatsOnlySaving is the pair's L3 saving when only the IM
	// heartbeat is relayed.
	HeartbeatsOnlySaving float64
	// AllPeriodicSaving is the saving when diagnostics and ad refreshes
	// ride the relay too.
	AllPeriodicSaving float64
	// OnTimeRate is the delivery punctuality with everything relayed.
	OnTimeRate float64
	Table      *metrics.Table
}

// Blocks prints the periodic-extension table.
func (r *ExtensionResult) Blocks() ([][]Block, error) { return one(tableBlock(r.Table)) }

// PeriodicExtension runs one relay + two UEs for two hours, first relaying
// only WeChat heartbeats, then also the devices' diagnostics and ad-refresh
// pings ("Our framework could be further applied in other periodic
// message[s], such as advertisements and diagnostic messages").
func PeriodicExtension(seed int64) (*ExtensionResult, error) {
	const horizon = 2 * time.Hour
	apps := []hbmsg.AppProfile{hbmsg.WeChat(), hbmsg.Diagnostics(), hbmsg.AdRefresh()}

	run := func(relayExtras bool, disableD2D bool) (*core.Report, error) {
		opts := core.Options{Seed: seed, Duration: horizon, DisableD2D: disableD2D}
		ue := core.UESpec{Apps: apps[:1], StartOffset: 20 * time.Second}
		if relayExtras {
			ue.Apps = apps
		}
		sim, _, _, err := core.Star{
			Relay:    core.RelaySpec{ID: "relay", Profile: hbmsg.StandardHeartbeat(), Capacity: 16},
			UE:       ue,
			UEs:      2,
			Distance: 1,
			Spacing:  40 * time.Second,
		}.Build(opts)
		if err != nil {
			return nil, err
		}
		if !relayExtras {
			// The extras still run — directly over cellular, outside the
			// framework — so the comparison covers identical traffic.
			for i := 0; i < 2; i++ {
				if _, err := sim.AddUE(core.UESpec{
					ID:          hbmsg.DeviceID(fmt.Sprintf("bg-%02d", i+1)),
					Apps:        apps[1:],
					Mobility:    geo.Static{P: geo.Point{X: 500}}, // out of D2D range
					StartOffset: 25*time.Second + time.Duration(i)*40*time.Second,
				}); err != nil {
					return nil, err
				}
			}
		}
		return sim.Run()
	}

	base, err := run(false, true)
	if err != nil {
		return nil, err
	}
	hbOnly, err := run(false, false)
	if err != nil {
		return nil, err
	}
	all, err := run(true, false)
	if err != nil {
		return nil, err
	}

	res := &ExtensionResult{
		HeartbeatsOnlySaving: 1 - float64(hbOnly.TotalL3Messages)/float64(base.TotalL3Messages),
		AllPeriodicSaving:    1 - float64(all.TotalL3Messages)/float64(base.TotalL3Messages),
		OnTimeRate:           all.OnTimeRate(),
	}
	t := metrics.NewTable(
		"Extension: relaying all periodic traffic (2 UEs, 2 h)",
		"configuration", "L3 msgs", "saving")
	t.AddRow("original (everything cellular)", fmt.Sprintf("%d", base.TotalL3Messages), "-")
	t.AddRow("heartbeats relayed", fmt.Sprintf("%d", hbOnly.TotalL3Messages),
		metrics.Pct(res.HeartbeatsOnlySaving))
	t.AddRow("heartbeats + diagnostics + ads relayed", fmt.Sprintf("%d", all.TotalL3Messages),
		metrics.Pct(res.AllPeriodicSaving))
	res.Table = t
	return res, nil
}
