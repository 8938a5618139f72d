package experiments

import (
	"fmt"
	"time"

	"d2dhb/internal/core"
	"d2dhb/internal/energy"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/metrics"
)

// IncentiveRow summarizes the relay-side economics at one UE count.
type IncentiveRow struct {
	UEs int
	// CreditsPerDay is the number of forwarded heartbeats (one credit
	// each, as in the Karma-Go-style scheme of Section III-A).
	CreditsPerDay int
	// ExtraBatteryShare is the relay's additional daily battery drain
	// versus being an ordinary device.
	ExtraBatteryShare float64
	// CreditsPerBatteryPercent is the exchange rate the operator must
	// beat for relaying to be worthwhile.
	CreditsPerBatteryPercent float64
}

// Incentive quantifies the relay's side of the bargain (Section III-A):
// how many reward credits a relay earns per day against the extra battery
// it burns, across UE counts. The operator can price credits (e.g. Karma
// Go's $1 or 100 MB per ~credit-bundle) anywhere above the relay's cost.
func Incentive(seed int64) ([]IncentiveRow, *metrics.Table, error) {
	battery := energy.GalaxyS4Battery()
	const day = 24 * time.Hour

	var rows []IncentiveRow
	t := metrics.NewTable(
		"Relay incentive economics (24 h, Galaxy S4)",
		"UEs", "credits/day", "extra battery/day", "credits per battery-%")
	// The baseline is the relay device as an ordinary cellular sender: the
	// original device, the same for every UE count.
	var orig *core.Report
	for _, n := range []int{1, 3, 5, 7} {
		m, err := stdPair(core.Options{Seed: seed, Duration: day}, n, n+1).measure(orig)
		if err != nil {
			return nil, nil, err
		}
		orig = m.orig
		extra := battery.DrainFraction(energy.MicroAmpHours(m.relayE - m.origE))
		row := IncentiveRow{
			UEs:               n,
			CreditsPerDay:     m.relay.Relay.Credits,
			ExtraBatteryShare: extra,
		}
		if extra > 0 {
			row.CreditsPerBatteryPercent = float64(row.CreditsPerDay) / (extra * 100)
		}
		rows = append(rows, row)
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", row.CreditsPerDay),
			metrics.Pct(row.ExtraBatteryShare), metrics.F(row.CreditsPerBatteryPercent))
	}
	return rows, t, nil
}

// ExpiryFactorRow summarizes scheduling behaviour at one expiry factor.
type ExpiryFactorRow struct {
	Factor float64
	// CapacityFlushes / DeadlineFlushes / PeriodEndFlushes break down why
	// the relay released its batches.
	CapacityFlushes  int
	DeadlineFlushes  int
	PeriodEndFlushes int
	OnTimeRate       float64
	L3Messages       int
}

// ExpiryFactorAblation sweeps the per-message expiration time T_k = factor
// × period. The paper notes commercial apps tolerate 3T while its scheduler
// conservatively bounds delay by T; this sweep shows how relaxed expiries
// shift flushes from deadline-driven to period-end-driven without changing
// signaling, while tight expiries force early flushes.
func ExpiryFactorAblation(seed int64) ([]ExpiryFactorRow, *metrics.Table, error) {
	const (
		numUEs  = 3
		periods = 6
	)
	relayProfile := stdProfile()

	var rows []ExpiryFactorRow
	t := metrics.NewTable(
		"Ablation: expiry factor T_k = f×T (3 UEs, 6 periods)",
		"factor", "capacity flushes", "deadline flushes", "period-end flushes", "on-time", "L3 msgs")
	for _, factor := range []float64{0.1, 0.5, 1, 3} {
		ueProfile := stdProfile()
		ueProfile.ExpiryFactor = factor
		opts := core.Options{
			Seed:     seed,
			Duration: kPeriods(relayProfile, periods),
		}
		sim, relay, _, err := core.Star{
			Relay:    core.RelaySpec{ID: "relay", Profile: relayProfile, Capacity: 8},
			UE:       core.UESpec{Apps: []hbmsg.AppProfile{ueProfile}, StartOffset: 20 * time.Second},
			UEs:      numUEs,
			Distance: 1,
			Spacing:  40 * time.Second,
		}.Build(opts)
		if err != nil {
			return nil, nil, err
		}
		rep, err := sim.Run()
		if err != nil {
			return nil, nil, err
		}
		st := relay.Stats()
		row := ExpiryFactorRow{
			Factor:           factor,
			CapacityFlushes:  st.FlushesByCapacity,
			DeadlineFlushes:  st.FlushesByDeadline,
			PeriodEndFlushes: st.FlushesByPeriodEnd,
			OnTimeRate:       rep.OnTimeRate(),
			L3Messages:       rep.TotalL3Messages,
		}
		rows = append(rows, row)
		t.AddRow(metrics.F(factor), fmt.Sprintf("%d", row.CapacityFlushes),
			fmt.Sprintf("%d", row.DeadlineFlushes), fmt.Sprintf("%d", row.PeriodEndFlushes),
			metrics.Pct(row.OnTimeRate), fmt.Sprintf("%d", row.L3Messages))
	}
	return rows, t, nil
}
