package experiments

import (
	"fmt"
	"time"

	"d2dhb/internal/core"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/matching"
	"d2dhb/internal/metrics"
	"d2dhb/internal/radio"
	"d2dhb/internal/sched"
)

// PolicyAblationRow summarizes one scheduling policy's behaviour.
type PolicyAblationRow struct {
	Policy          sched.Kind
	L3Messages      int
	TotalEnergy     float64
	OnTimeRate      float64
	FallbackResends int
}

// PolicyAblation compares Algorithm 1 against the baseline policies on a
// relay serving three UEs whose heartbeats expire well before the relay's
// period end — the regime where ignoring T_k (fixed delay, period aligned)
// delivers late, and ignoring batching (immediate) wastes signaling.
func PolicyAblation(seed int64) ([]PolicyAblationRow, *metrics.Table, error) {
	profile := stdProfile()
	ueProfile := stdProfile()
	ueProfile.ExpiryFactor = 0.3 // T_k = 81 s ≪ relay period 270 s

	kinds := []sched.Kind{
		sched.KindNagle, sched.KindImmediate, sched.KindFixedDelay, sched.KindPeriodAligned,
	}
	var rows []PolicyAblationRow
	t := metrics.NewTable("Ablation: scheduling policies (3 UEs, tight expiries, 6 periods)",
		"policy", "L3 msgs", "energy (µAh)", "on-time", "fallbacks")
	for _, kind := range kinds {
		opts := core.Options{
			Seed:       seed,
			Duration:   6 * profile.Period,
			Policy:     kind,
			FixedDelay: 120 * time.Second, // > T_k: the fixed delay misses deadlines
		}
		sim, _, ues, err := core.Star{
			Relay:    core.RelaySpec{ID: "relay", Profile: profile, Capacity: 8},
			UE:       core.UESpec{Apps: []hbmsg.AppProfile{ueProfile}, StartOffset: 20 * time.Second},
			UEs:      3,
			Distance: 1,
			// Spaced well beyond the RRC tail (so the immediate policy
			// cannot piggyback connections) but within the 81 s expiry
			// window (so Algorithm 1 can still batch all three).
			Spacing: 30 * time.Second,
		}.Build(opts)
		if err != nil {
			return nil, nil, err
		}
		rep, err := sim.Run()
		if err != nil {
			return nil, nil, err
		}
		fallbacks := 0
		for _, ue := range ues {
			fallbacks += ue.Stats().FallbackResends
		}
		row := PolicyAblationRow{
			Policy:          kind,
			L3Messages:      rep.TotalL3Messages,
			TotalEnergy:     float64(rep.TotalEnergy()),
			OnTimeRate:      rep.OnTimeRate(),
			FallbackResends: fallbacks,
		}
		rows = append(rows, row)
		t.AddRow(kind.String(), fmt.Sprintf("%d", row.L3Messages),
			metrics.F(row.TotalEnergy), metrics.Pct(row.OnTimeRate),
			fmt.Sprintf("%d", row.FallbackResends))
	}
	return rows, t, nil
}

// TechniqueAblationRow summarizes one D2D technique at one distance.
type TechniqueAblationRow struct {
	Technique  radio.Technique
	Distance   float64
	Matched    bool
	L3Messages int
	UEEnergy   float64
}

// TechniqueAblation contrasts Wi-Fi Direct with Bluetooth (Section IV-A):
// at 12 m, Bluetooth's ~10 m range forces the UE back onto cellular while
// Wi-Fi Direct keeps forwarding.
func TechniqueAblation(seed int64) ([]TechniqueAblationRow, *metrics.Table, error) {
	const k = 6
	var rows []TechniqueAblationRow
	t := metrics.NewTable("Ablation: D2D technique (1 UE, 6 periods)",
		"technique", "distance (m)", "matched", "L3 msgs", "UE energy (µAh)")
	for _, tech := range []radio.Technique{radio.WiFiDirect, radio.Bluetooth} {
		for _, d := range []float64{2, 12} {
			opts := core.Options{Seed: seed, Duration: k * stdProfile().Period, Technique: tech}
			rep, err := pair{opts: opts, profile: stdProfile(), ues: 1, distance: d, capacity: 8}.run()
			if err != nil {
				return nil, nil, err
			}
			ue, err := deviceReport(rep, "ue-01")
			if err != nil {
				return nil, nil, err
			}
			row := TechniqueAblationRow{
				Technique:  tech,
				Distance:   d,
				Matched:    ue.UE.Matches > 0,
				L3Messages: rep.TotalL3Messages,
				UEEnergy:   float64(ue.Total),
			}
			rows = append(rows, row)
			t.AddRow(tech.String(), metrics.F(d), fmt.Sprintf("%v", row.Matched),
				fmt.Sprintf("%d", row.L3Messages), metrics.F(row.UEEnergy))
		}
	}
	return rows, t, nil
}

// PrejudgmentAblationRow summarizes the matcher with or without the
// distance prejudgment against a far, loss-prone relay.
type PrejudgmentAblationRow struct {
	Prejudgment     bool
	UEEnergy        float64
	LateDeliveries  int
	FallbackResends int
	D2DSendFailures int
}

// PrejudgmentAblation places the only relay at 33 m — inside Wi-Fi Direct
// radio range but deep in the loss zone and far beyond the 15 m
// prejudgment bound. With prejudgment the UE goes straight to cellular;
// without it the UE pays for lossy D2D attempts and duplicate fallbacks.
func PrejudgmentAblation(seed int64) ([]PrejudgmentAblationRow, *metrics.Table, error) {
	const k = 10
	var rows []PrejudgmentAblationRow
	t := metrics.NewTable("Ablation: matching prejudgment (relay at 33 m, 10 periods)",
		"prejudgment", "UE energy (µAh)", "late", "fallbacks", "d2d failures")
	for _, pre := range []bool{true, false} {
		match := matching.DefaultConfig()
		match.Prejudgment = pre
		opts := core.Options{Seed: seed, Duration: k * stdProfile().Period, Match: &match}
		rep, err := pair{opts: opts, profile: stdProfile(), ues: 1, distance: 33, capacity: 8}.run()
		if err != nil {
			return nil, nil, err
		}
		ue, err := deviceReport(rep, "ue-01")
		if err != nil {
			return nil, nil, err
		}
		row := PrejudgmentAblationRow{
			Prejudgment:     pre,
			UEEnergy:        float64(ue.Total),
			LateDeliveries:  rep.LateDeliveries,
			FallbackResends: ue.UE.FallbackResends,
			D2DSendFailures: ue.UE.D2DSendFailures,
		}
		rows = append(rows, row)
		t.AddRow(fmt.Sprintf("%v", pre), metrics.F(row.UEEnergy),
			fmt.Sprintf("%d", row.LateDeliveries),
			fmt.Sprintf("%d", row.FallbackResends),
			fmt.Sprintf("%d", row.D2DSendFailures))
	}
	return rows, t, nil
}

// FeedbackAblationRow summarizes delivery robustness with and without the
// feedback mechanism when the relay dies mid-run.
type FeedbackAblationRow struct {
	FeedbackEnabled bool
	Generated       int
	Delivered       int
	FallbackResends int
}

// FeedbackAblation kills the relay shortly after the first collection and
// compares the feedback/fallback mechanism against a UE that never times
// out: without feedback the forwarded heartbeats are silently lost.
func FeedbackAblation(seed int64) ([]FeedbackAblationRow, *metrics.Table, error) {
	profile := stdProfile()
	var rows []FeedbackAblationRow
	t := metrics.NewTable("Ablation: feedback mechanism (relay dies at 20 s)",
		"feedback", "generated", "delivered", "fallbacks")
	for _, enabled := range []bool{true, false} {
		opts := core.Options{
			Seed:     seed,
			Duration: 4 * profile.Period,
		}
		if !enabled {
			opts.FeedbackTimeout = 1000 * time.Hour // never fires in-horizon
		}
		sim, relay, ues, err := core.Star{
			Relay:    core.RelaySpec{ID: "relay", Profile: profile, Capacity: 8},
			UE:       core.UESpec{Apps: []hbmsg.AppProfile{profile}, StartOffset: 10 * time.Second},
			UEs:      1,
			Distance: 1,
		}.Build(opts)
		if err != nil {
			return nil, nil, err
		}
		if _, err := sim.Scheduler().At(20*time.Second, relay.Stop); err != nil {
			return nil, nil, err
		}
		rep, err := sim.Run()
		if err != nil {
			return nil, nil, err
		}
		st := ues[0].Stats()
		row := FeedbackAblationRow{
			FeedbackEnabled: enabled,
			Generated:       st.Generated,
			Delivered:       rep.Deliveries,
			FallbackResends: st.FallbackResends,
		}
		rows = append(rows, row)
		t.AddRow(fmt.Sprintf("%v", enabled), fmt.Sprintf("%d", row.Generated),
			fmt.Sprintf("%d", row.Delivered), fmt.Sprintf("%d", row.FallbackResends))
	}
	return rows, t, nil
}

// CoverageAblationRow summarizes one technique's crowd coverage.
type CoverageAblationRow struct {
	Technique  radio.Technique
	MatchedUEs int
	TotalUEs   int
	Forwarded  int
	L3Saving   float64
}

// CoverageAblation measures how much of a sparse crowd each D2D technique
// can serve: 2 relays and 40 UEs over a 300 m square, matching prejudgment
// disabled so radio range alone bounds coverage. Bluetooth (~10 m) reaches
// almost nobody, Wi-Fi Direct (~37 m) a slice, and LTE Direct (~500 m,
// Section II-C) the whole crowd — the paper's argument that the framework
// "would be friendlier to users with the development of D2D technology".
func CoverageAblation(seed int64) ([]CoverageAblationRow, *metrics.Table, error) {
	const (
		numRelays = 2
		numUEs    = 40
		side      = 300.0
		periods   = 3
	)
	profile := stdProfile()
	match := matching.DefaultConfig()
	match.Prejudgment = false

	c := crowd{
		opts:     core.Options{Seed: seed, Duration: periods * profile.Period, Match: &match},
		profile:  profile,
		relays:   numRelays,
		ues:      numUEs,
		side:     side,
		capacity: 64,
	}
	baseRep, err := c.original()
	if err != nil {
		return nil, nil, err
	}

	var rows []CoverageAblationRow
	t := metrics.NewTable(
		"Ablation: D2D technique coverage (2 relays, 40 UEs, 300 m square)",
		"technique", "matched UEs", "forwarded", "L3 saving")
	for _, tech := range []radio.Technique{radio.Bluetooth, radio.WiFiDirect, radio.LTEDirect} {
		c.opts.Technique = tech
		rep, err := c.run()
		if err != nil {
			return nil, nil, err
		}
		row := CoverageAblationRow{Technique: tech, TotalUEs: numUEs}
		for _, d := range rep.Devices {
			if d.UE == nil {
				continue
			}
			if d.UE.Matches > 0 {
				row.MatchedUEs++
			}
			row.Forwarded += d.UE.SentViaD2D
		}
		row.L3Saving = 1 - float64(rep.TotalL3Messages)/float64(baseRep.TotalL3Messages)
		rows = append(rows, row)
		t.AddRow(tech.String(), fmt.Sprintf("%d/%d", row.MatchedUEs, row.TotalUEs),
			fmt.Sprintf("%d", row.Forwarded), metrics.Pct(row.L3Saving))
	}
	return rows, t, nil
}

// CapacityAblationRow summarizes one relay capacity setting.
type CapacityAblationRow struct {
	Capacity      int
	L3Messages    int
	Flushes       int
	ForwardedSent int
	TotalEnergy   float64
}

// CapacityAblation sweeps the collection capacity M with seven connected
// UEs: small M forces many small flushes (more signaling); the batching
// gain saturates once M exceeds the UE count.
func CapacityAblation(seed int64) ([]CapacityAblationRow, *metrics.Table, error) {
	const (
		k      = 4
		numUEs = 7
	)
	var rows []CapacityAblationRow
	t := metrics.NewTable("Ablation: relay capacity M (7 UEs, 4 periods)",
		"capacity", "L3 msgs", "flushes", "forwarded", "energy (µAh)")
	for _, capacity := range []int{1, 2, 4, 8, 16} {
		opts := core.Options{Seed: seed, Duration: k * stdProfile().Period}
		rep, err := stdPair(opts, numUEs, capacity).run()
		if err != nil {
			return nil, nil, err
		}
		relay, err := deviceReport(rep, "relay")
		if err != nil {
			return nil, nil, err
		}
		row := CapacityAblationRow{
			Capacity:      capacity,
			L3Messages:    rep.TotalL3Messages,
			Flushes:       relay.Relay.Flushes,
			ForwardedSent: relay.Relay.ForwardedSent,
			TotalEnergy:   float64(rep.TotalEnergy()),
		}
		rows = append(rows, row)
		t.AddRow(fmt.Sprintf("%d", capacity), fmt.Sprintf("%d", row.L3Messages),
			fmt.Sprintf("%d", row.Flushes), fmt.Sprintf("%d", row.ForwardedSent),
			metrics.F(row.TotalEnergy))
	}
	return rows, t, nil
}
