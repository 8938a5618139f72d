package core

import (
	"time"

	"d2dhb/internal/cellular"
	"d2dhb/internal/d2d"
	"d2dhb/internal/device"
	"d2dhb/internal/energy"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/presence"
	"d2dhb/internal/rrc"
)

// NewDeviceReport assembles one device's share of a report from what every
// kernel keeps per device: its ledger, its RRC counters, the network-side
// presence tracker and the state machine itself (exactly one of relay and
// ue is non-nil).
func NewDeviceReport(id hbmsg.DeviceID, role d2d.Role, ledger *energy.Ledger, counters rrc.Counters,
	tracker *presence.Tracker, horizon time.Duration, relay *device.Relay, ue *device.UE) *DeviceReport {
	_, flaps, _ := tracker.Stats(id, horizon)
	totals, charged := ledger.Snapshot()
	dr := &DeviceReport{
		ID:            id,
		Role:          role,
		Energy:        totals,
		Charged:       charged,
		Total:         ledger.Total(),
		RRC:           counters,
		Availability:  tracker.Availability(id, horizon),
		PresenceFlaps: flaps,
	}
	if relay != nil {
		st := relay.Stats()
		dr.Relay = &st
	}
	if ue != nil {
		st := ue.Stats()
		dr.UE = &st
	}
	return dr
}

// NewReport assembles a Report from device reports in stable population
// order, so the sequential and the tile-sharded kernel produce results —
// and canonical digests — of exactly the same shape. Device order in
// devices is preserved.
func NewReport(duration time.Duration, devices []*DeviceReport, totalL3, deliveries, late int, channel cellular.ChannelReport) *Report {
	return &Report{
		Duration:        duration,
		Devices:         devices,
		TotalL3Messages: totalL3,
		Deliveries:      deliveries,
		LateDeliveries:  late,
		Channel:         channel,
	}
}
