package experiments

import (
	"fmt"
	"time"

	"d2dhb/internal/core"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/metrics"
	"d2dhb/internal/sched"
	"d2dhb/internal/trace"
)

// DelayRow summarizes delivery delay under one scheduling policy.
type DelayRow struct {
	Policy sched.Kind
	// Relayed is the generation→delivery delay distribution of heartbeats
	// carried by the relay.
	Relayed trace.DelayStats
	// L3Messages is the signaling spent, the other side of the tradeoff.
	L3Messages int
	// LateDeliveries counts deliveries past their deadline.
	LateDeliveries int
}

// DelayByPolicy quantifies the delay Algorithm 1 trades for signaling: the
// scheduler "aims to minimize the delay raised by forwarding and reduce the
// energy consumption" (Section I). Immediate send has near-zero delay at
// maximal signaling; Algorithm 1 delays up to min(T_k, T) for one
// connection per period; the deadline-blind baselines delay longer and
// deliver late.
func DelayByPolicy(seed int64) ([]DelayRow, *metrics.Table, error) {
	const (
		numUEs  = 3
		periods = 8
	)
	profile := stdProfile()

	var rows []DelayRow
	t := metrics.NewTable("Forwarding delay by scheduling policy (3 UEs, 8 periods)",
		"policy", "mean (s)", "p95 (s)", "max (s)", "L3 msgs", "late")
	for _, kind := range []sched.Kind{
		sched.KindImmediate, sched.KindNagle, sched.KindFixedDelay, sched.KindPeriodAligned,
	} {
		var rec trace.Recorder
		opts := core.Options{
			Seed:       seed,
			Duration:   kPeriods(profile, periods),
			Policy:     kind,
			FixedDelay: 60 * time.Second,
			Tracer:     &rec,
		}
		sim, _, _, err := core.Star{
			Relay:    core.RelaySpec{ID: "relay", Profile: profile, Capacity: 8},
			UE:       core.UESpec{Apps: []hbmsg.AppProfile{profile}, StartOffset: 20 * time.Second},
			UEs:      numUEs,
			Distance: 1,
			Spacing:  30 * time.Second,
		}.Build(opts)
		if err != nil {
			return nil, nil, err
		}
		rep, err := sim.Run()
		if err != nil {
			return nil, nil, err
		}
		analysis := trace.Analyze(rec.Events())
		row := DelayRow{
			Policy:         kind,
			Relayed:        analysis.Relayed,
			L3Messages:     rep.TotalL3Messages,
			LateDeliveries: rep.LateDeliveries,
		}
		rows = append(rows, row)
		t.AddRow(kind.String(),
			metrics.F(row.Relayed.MeanMs/1000), metrics.F(row.Relayed.P95Ms/1000),
			metrics.F(row.Relayed.MaxMs/1000),
			fmt.Sprintf("%d", row.L3Messages), fmt.Sprintf("%d", row.LateDeliveries))
	}
	return rows, t, nil
}
