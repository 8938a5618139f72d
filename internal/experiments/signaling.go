package experiments

import (
	"fmt"

	"d2dhb/internal/core"
	"d2dhb/internal/metrics"
)

// SignalingResult reproduces Fig. 15: layer-3 message consumption of the
// relay versus the original system, and the pair-level signaling saving.
type SignalingResult struct {
	K []float64
	// Original is the single original-system device's layer-3 messages.
	Original []float64
	// RelayWith1UE / RelayWith2UEs are the relay device's layer-3 messages
	// when serving 1 or 2 connected UEs.
	RelayWith1UE  []float64
	RelayWith2UEs []float64
	// PairSaving1UE is the signaling saving of the relay+1UE pair versus
	// two original devices, at the largest k (the headline > 50 % / "about
	// 50 % in the worst situation" number).
	PairSaving1UE float64
	// TrioSaving2UEs is the saving of the relay+2UE trio versus three
	// original devices.
	TrioSaving2UEs float64
}

// Fig15 measures layer-3 message consumption for 1..maxK transmissions.
func Fig15(seed int64, maxK int) (*SignalingResult, error) {
	if maxK < 1 {
		return nil, fmt.Errorf("experiments: maxK must be >= 1, got %d", maxK)
	}
	res := &SignalingResult{}
	var lastOrig, lastR1, lastR2 float64
	for k := 1; k <= maxK; k++ {
		p := stdPair(core.Options{Seed: seed, Duration: kPeriods(stdProfile(), k)}, 1, 8)
		m1, err := p.measure(nil)
		if err != nil {
			return nil, err
		}
		p.ues = 2
		m2, err := p.measure(m1.orig)
		if err != nil {
			return nil, err
		}
		orig := float64(m1.orig.TotalL3Messages)
		r1 := float64(m1.relay.RRC.L3Messages)
		r2 := float64(m2.relay.RRC.L3Messages)

		res.K = append(res.K, float64(k))
		res.Original = append(res.Original, orig)
		res.RelayWith1UE = append(res.RelayWith1UE, r1)
		res.RelayWith2UEs = append(res.RelayWith2UEs, r2)
		lastOrig, lastR1, lastR2 = orig, r1, r2
	}
	// Pair saving: scheme signaling (relay only; the UE's modem is silent)
	// versus each device sending for itself.
	if lastOrig > 0 {
		res.PairSaving1UE = 1 - lastR1/(2*lastOrig)
		res.TrioSaving2UEs = 1 - lastR2/(3*lastOrig)
	}
	return res, nil
}

// Blocks prints Fig. 15 and its headline.
func (r *SignalingResult) Blocks() ([][]Block, error) {
	fig, err := figureBlock("Fig. 15: layer 3 message consumption", "transmissions", r.K, []metrics.Series{
		{Name: "Original System", Y: r.Original},
		{Name: "Relay with 1 UE", Y: r.RelayWith1UE},
		{Name: "Relay with 2 UEs", Y: r.RelayWith2UEs},
	})
	return [][]Block{{fig, headline("headline: pair saving %.1f%% (paper: about 50%% worst case); trio saving %.1f%% (paper: more than 50%%)",
		r.PairSaving1UE*100, r.TrioSaving2UEs*100)}}, err
}
