package d2dhb

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (Section V). Each one runs the corresponding experiment and
// reports its headline quantity via b.ReportMetric, so `go test -bench=.`
// (`make bench`) doubles as the reproduction harness; `cmd/d2dbench` prints
// the full tables. Ablation benchmarks cover the design choices called out
// in DESIGN.md §5. The performance benchmark that judges changes is
// bench/run.sh, not these.

import (
	"bytes"
	"testing"
	"time"

	"d2dhb/internal/experiments"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/hbproto"
	"d2dhb/internal/hbproto/hbprototest"
	"d2dhb/internal/sched"
	"d2dhb/internal/trace"
)

// BenchmarkTable1HeartbeatProportions regenerates Table I: the heartbeat
// share of each popular app's message stream.
func BenchmarkTable1HeartbeatProportions(b *testing.B) {
	var maxErr float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		maxErr = 0
		for _, row := range res.Rows {
			if row.AbsErr > maxErr {
				maxErr = row.AbsErr
			}
		}
	}
	b.ReportMetric(maxErr*100, "max-share-err-%")
}

// BenchmarkFig6D2DCurrentTrace regenerates Fig. 6: the instant-current
// trace of one D2D transfer.
func BenchmarkFig6D2DCurrentTrace(b *testing.B) {
	var charge float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig6(DefaultEnergyModel())
		charge = float64(res.Charge)
	}
	b.ReportMetric(charge, "µAh")
}

// BenchmarkFig7CellularCurrentTrace regenerates Fig. 7: the instant-current
// trace of one cellular transfer with its RRC tail.
func BenchmarkFig7CellularCurrentTrace(b *testing.B) {
	var charge float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig7(DefaultEnergyModel())
		charge = float64(res.Charge)
	}
	b.ReportMetric(charge, "µAh")
}

// BenchmarkTable3PhaseEnergy regenerates Table III: per-phase energy for UE
// and relay on one forwarded heartbeat.
func BenchmarkTable3PhaseEnergy(b *testing.B) {
	var ueTotal float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		ueTotal = res.UEDiscovery + res.UEConnection + res.UEForwarding
	}
	b.ReportMetric(ueTotal, "ue-first-period-µAh")
}

// BenchmarkFig8EnergyVsTransmissions regenerates Fig. 8: UE, relay and
// original-system energy over 0..8 forwarded heartbeats.
func BenchmarkFig8EnergyVsTransmissions(b *testing.B) {
	var ueAt8 float64
	for i := 0; i < b.N; i++ {
		c, err := experiments.EnergyVsTransmissions(experiments.DefaultSeed, 8)
		if err != nil {
			b.Fatal(err)
		}
		ueAt8 = c.UE[8]
	}
	b.ReportMetric(ueAt8, "ue-µAh-at-k8")
}

// BenchmarkFig9SavedEnergy regenerates Fig. 9: saved energy percentages for
// the whole system and the UE.
func BenchmarkFig9SavedEnergy(b *testing.B) {
	var sysAt7, ueAt1 float64
	for i := 0; i < b.N; i++ {
		c, err := experiments.EnergyVsTransmissions(experiments.DefaultSeed, 7)
		if err != nil {
			b.Fatal(err)
		}
		sysAt7 = c.SavedSystemPct[7] * 100
		ueAt1 = c.SavedUEPct[1] * 100
	}
	b.ReportMetric(sysAt7, "system-saving-%-at-k7")
	b.ReportMetric(ueAt1, "ue-saving-%-at-k1")
}

// BenchmarkFig10RelayMultiUE regenerates Fig. 10: relay energy with
// 1/3/5/7 connected UEs.
func BenchmarkFig10RelayMultiUE(b *testing.B) {
	var relay7 float64
	for i := 0; i < b.N; i++ {
		m, err := experiments.RelayMultiUE(experiments.DefaultSeed, 7)
		if err != nil {
			b.Fatal(err)
		}
		relay7 = m.RelayE[7][len(m.K)-1]
	}
	b.ReportMetric(relay7, "relay-µAh-7ues-k7")
}

// BenchmarkFig11WastedToSavedRatio regenerates Fig. 11: the ratio of relay
// energy wasted to UE energy saved.
func BenchmarkFig11WastedToSavedRatio(b *testing.B) {
	var first, last float64
	for i := 0; i < b.N; i++ {
		m, err := experiments.RelayMultiUE(experiments.DefaultSeed, 7)
		if err != nil {
			b.Fatal(err)
		}
		first = m.Ratio[1][0]
		last = m.Ratio[7][len(m.K)-1]
	}
	b.ReportMetric(first, "ratio-%-1ue-k1")
	b.ReportMetric(last, "ratio-%-7ues-k7")
}

// BenchmarkTable4ReceiveEnergy regenerates Table IV: relay receive energy
// versus the number of connected UEs.
func BenchmarkTable4ReceiveEnergy(b *testing.B) {
	var at7 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		at7 = res.Measured[6]
	}
	b.ReportMetric(at7, "recv-µAh-7ues")
}

// BenchmarkFig12DistanceSweep regenerates Fig. 12: energy at 1..15 m
// communication distances.
func BenchmarkFig12DistanceSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DistanceSweep(experiments.DefaultSeed, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13MessageSizeSweep regenerates Fig. 13: energy at 1×..5× the
// standard heartbeat size.
func BenchmarkFig13MessageSizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MessageSizeSweep(experiments.DefaultSeed, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15Layer3Messages regenerates Fig. 15: layer-3 signaling of
// the relay versus the original system, and the headline saving.
func BenchmarkFig15Layer3Messages(b *testing.B) {
	var pair, trio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15(experiments.DefaultSeed, 10)
		if err != nil {
			b.Fatal(err)
		}
		pair = res.PairSaving1UE * 100
		trio = res.TrioSaving2UEs * 100
	}
	b.ReportMetric(pair, "pair-saving-%")
	b.ReportMetric(trio, "trio-saving-%")
}

// BenchmarkAblationSchedulerPolicies compares Algorithm 1 against the
// immediate, fixed-delay and period-aligned baselines.
func BenchmarkAblationSchedulerPolicies(b *testing.B) {
	var nagleOnTime float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.PolicyAblation(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Policy == sched.KindNagle {
				nagleOnTime = r.OnTimeRate * 100
			}
		}
	}
	b.ReportMetric(nagleOnTime, "nagle-on-time-%")
}

// BenchmarkAblationD2DTechnique compares Wi-Fi Direct against Bluetooth.
func BenchmarkAblationD2DTechnique(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.TechniqueAblation(experiments.DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPrejudgment compares matching with and without the
// distance/capacity prejudgment.
func BenchmarkAblationPrejudgment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.PrejudgmentAblation(experiments.DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFeedback compares delivery with and without the
// feedback/fallback mechanism under relay failure.
func BenchmarkAblationFeedback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.FeedbackAblation(experiments.DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCapacity sweeps the relay collection capacity M.
func BenchmarkAblationCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.CapacityAblation(experiments.DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCoverage compares crowd coverage across Bluetooth,
// Wi-Fi Direct and LTE Direct.
func BenchmarkAblationCoverage(b *testing.B) {
	var lteMatched float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.CoverageAblation(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		lteMatched = float64(rows[len(rows)-1].MatchedUEs)
	}
	b.ReportMetric(lteMatched, "lte-direct-matched-ues")
}

// BenchmarkAblationExpiryFactor sweeps the per-message expiry factor.
func BenchmarkAblationExpiryFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.ExpiryFactorAblation(experiments.DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeriodicExtension measures the conclusion's proposed extension:
// relaying diagnostics and advertisement refreshes alongside heartbeats.
func BenchmarkPeriodicExtension(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.PeriodicExtension(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		saving = res.AllPeriodicSaving * 100
	}
	b.ReportMetric(saving, "all-periodic-saving-%")
}

// BenchmarkRelayIncentive quantifies relay credits earned against battery
// burned across UE counts.
func BenchmarkRelayIncentive(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Incentive(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		rate = rows[len(rows)-1].CreditsPerBatteryPercent
	}
	b.ReportMetric(rate, "credits-per-battery-%-7ues")
}

// BenchmarkRelayDensitySweep measures how the framework's savings scale
// with relay participation.
func BenchmarkRelayDensitySweep(b *testing.B) {
	var l3 float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.RelayDensitySweep(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		l3 = rows[len(rows)-1].L3Saving * 100
	}
	b.ReportMetric(l3, "l3-saving-%-16relays")
}

// BenchmarkStormSweep regenerates the operator-side motivation: control-
// channel overload vs crowd density, with and without the framework.
func BenchmarkStormSweep(b *testing.B) {
	var origPeak, schemePeak float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.StormSweep(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		origPeak = last.PeakUtilOriginal * 100
		schemePeak = last.PeakUtilScheme * 100
	}
	b.ReportMetric(origPeak, "orig-peak-util-%-200ues")
	b.ReportMetric(schemePeak, "scheme-peak-util-%-200ues")
}

// BenchmarkIntroBatteryShare regenerates the Section I motivating claim:
// one IM app's heartbeats burn "at least 6%" of the battery per day over
// cellular, versus a fraction of that through a relay.
func BenchmarkIntroBatteryShare(b *testing.B) {
	var orig, ue float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.BatteryShare(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		orig = res.OriginalDailyShare * 100
		ue = res.UEDailyShare * 100
	}
	b.ReportMetric(orig, "original-%-per-day")
	b.ReportMetric(ue, "ue-%-per-day")
}

// BenchmarkSchedulerCollect micro-benchmarks Algorithm 1's hot path.
func BenchmarkSchedulerCollect(b *testing.B) {
	profile := hbmsg.StandardHeartbeat()
	n, err := sched.NewNagle(64, profile.Period)
	if err != nil {
		b.Fatal(err)
	}
	n.StartPeriod(0)
	hb := profile.Heartbeat("ue", 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if flush, _ := n.Collect(hb, 0); flush {
			n.Flush(0)
			n.StartPeriod(0)
		}
	}
}

// BenchmarkCrowdSimulation measures full-system simulation throughput: 5
// relays and 50 UEs over two heartbeat periods.
func BenchmarkCrowdSimulation(b *testing.B) {
	profile := StandardHeartbeat()
	for i := 0; i < b.N; i++ {
		sim, err := CrowdScenario(Options{Seed: int64(i + 1), Duration: 2 * profile.Period},
			profile, 5, 50, 100, 8)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelayByPolicy quantifies the forwarding-delay/signaling tradeoff
// across scheduling policies.
func BenchmarkDelayByPolicy(b *testing.B) {
	var nagleMean float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.DelayByPolicy(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Policy == sched.KindNagle {
				nagleMean = r.Relayed.MeanMs / 1000
			}
		}
	}
	b.ReportMetric(nagleMean, "nagle-mean-delay-s")
}

// BenchmarkCalibrationSensitivity sweeps the cellular-energy calibration
// ±50 % and reports the headline savings' robustness.
func BenchmarkCalibrationSensitivity(b *testing.B) {
	var lowest float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.CalibrationSensitivity(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		lowest = rows[0].SystemSavingK7 * 100
	}
	b.ReportMetric(lowest, "system-saving-%-at-lowest-Ecell")
}

// BenchmarkProtoRoundTrip measures hbproto encode+decode of a typical
// 8-message batch.
func BenchmarkProtoRoundTrip(b *testing.B) {
	batch := &hbproto.Batch{Relay: "relay-1"}
	for i := 0; i < 8; i++ {
		batch.HBs = append(batch.HBs, hbproto.Heartbeat{
			Src: "ue-01", Seq: uint64(i), App: "WeChat",
			Origin: time.UnixMilli(1_700_000_000_000), Expiry: 270 * time.Second, Pad: 74,
		})
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := hbprototest.WriteFrame(&buf, batch); err != nil {
			b.Fatal(err)
		}
		if _, err := hbprototest.ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceAnalyze measures delay analysis over a 10k-event stream.
func BenchmarkTraceAnalyze(b *testing.B) {
	events := make([]trace.Event, 0, 10_000)
	for i := 0; i < 5_000; i++ {
		seq := uint64(i)
		events = append(events,
			trace.Event{At: time.Duration(i) * 100 * time.Millisecond, Device: "ue", Kind: trace.KindGenerated, Seq: seq},
			trace.Event{At: time.Duration(i*100+50) * time.Millisecond, Device: "ue", Kind: trace.KindDelivery, Seq: seq, Peer: "relay", OnTime: true},
		)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := trace.Analyze(events)
		if a.Total.Count != 5_000 {
			b.Fatalf("count = %d", a.Total.Count)
		}
	}
}

// BenchmarkCityScale is the city macro-benchmark: 10k mixed-mobility
// devices through the full framework for two heartbeat periods (the short
// preset). b.N iterations rebuild and rerun the whole city.
func BenchmarkCityScale(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		_, stats, err := experiments.RunCity(experiments.CityShort())
		if err != nil {
			b.Fatal(err)
		}
		events = stats.Events
	}
	b.ReportMetric(float64(events), "events")
}
