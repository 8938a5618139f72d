package core

import (
	"fmt"
	"testing"
	"time"

	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
)

// unboundedMob wraps a mobility without exposing a speed bound, exercising
// the discovery index's linear fallback for custom mobility models.
type unboundedMob struct{ inner geo.Mobility }

func (u unboundedMob) Pos(at time.Duration) geo.Point { return u.inner.Pos(at) }

// mixedCrowd builds a crowd with every mobility class the simulator knows:
// static devices, speed-bounded walkers/orbiters/line movers and a custom
// unbounded mobility. It is the determinism suite's worst-case topology —
// if the spatial index or the event kernel perturbed anything observable,
// some device's energy ledger, RRC counters or delivery stats would drift.
func mixedCrowd(t *testing.T, seed int64) *Simulation {
	t.Helper()
	profile := hbmsg.StandardHeartbeat()
	sim, err := New(Options{Seed: seed, Duration: 2*profile.Period + 30*time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	area := geo.Square(120)
	rng := sim.Scheduler().Rand()
	walker := func(id string) geo.Mobility {
		w, err := geo.NewRandomWaypoint(area, area.RandomPoint(rng), 0.5, 1.8, 5*time.Second, seed+int64(len(id)))
		if err != nil {
			t.Fatalf("waypoint %s: %v", id, err)
		}
		return w
	}
	for i := 0; i < 6; i++ {
		mob := geo.Mobility(geo.Static{P: area.RandomPoint(rng)})
		if i%2 == 1 {
			mob = walker(string(rune('a' + i)))
		}
		if _, err := sim.AddRelay(RelaySpec{
			ID:          hbmsg.DeviceID(rune('a'+i)) + "-relay",
			Profile:     profile,
			Mobility:    mob,
			Capacity:    6,
			StartOffset: time.Duration(rng.Int63n(int64(profile.Period))),
		}); err != nil {
			t.Fatalf("AddRelay %d: %v", i, err)
		}
	}
	for i := 0; i < 40; i++ {
		var mob geo.Mobility
		p := area.RandomPoint(rng)
		switch i % 5 {
		case 0:
			mob = geo.Static{P: p}
		case 1:
			mob = walker(string(rune('0' + i%10)))
		case 2:
			mob = geo.Orbit{Center: p, Radius: 8, Omega: 0.01, Phase: float64(i)}
		case 3:
			mob = geo.Line{From: p, To: area.Clamp(p.Add(30, -20)), Speed: 1.2, Start: 40 * time.Second}
		default:
			mob = unboundedMob{inner: geo.Orbit{Center: p, Radius: 5, Omega: 0.02}}
		}
		if _, err := sim.AddUE(UESpec{
			ID:          hbmsg.DeviceID(fmt.Sprintf("ue-%02d", i)),
			Apps:        []hbmsg.AppProfile{profile},
			Mobility:    mob,
			StartOffset: time.Duration(rng.Int63n(int64(profile.Period))),
		}); err != nil {
			t.Fatalf("AddUE %d: %v", i, err)
		}
	}
	return sim
}

// goldenDigests pins the full-report digest of the mixed crowd per seed,
// recorded from the pre-optimization tree (container/heap kernel, linear
// Scan). The grid index and the pooled 4-ary kernel must keep every seeded
// run bit-identical to these values.
var goldenDigests = map[int64]string{
	1:  "caaa1dcc64486c83837ddc4e7979fca937b2f4502c0cfe44149b201a15a491c5",
	7:  "f59ac945b83e16d8dbd483da7ee0b3a9fcb7a9465fc7cb229d368c1666952ccc",
	42: "a1f98c2d21afac48808ef30e518e1acc5f3865dbae8abe4cea79b947a827c31c",
}

// TestMixedCrowdDeterminismGolden runs the mixed crowd at several seeds,
// twice per seed, and checks (a) repeat runs agree and (b) the digest
// matches the golden recorded from main. Run with -run Determinism -v to
// print fresh digests when the observable model legitimately changes.
func TestMixedCrowdDeterminismGolden(t *testing.T) {
	for seed, want := range goldenDigests {
		var digests []string
		for rep := 0; rep < 2; rep++ {
			rep, err := mixedCrowd(t, seed).Run()
			if err != nil {
				t.Fatalf("seed %d: Run: %v", seed, err)
			}
			digests = append(digests, rep.Digest())
		}
		if digests[0] != digests[1] {
			t.Fatalf("seed %d: repeat runs diverged: %s vs %s", seed, digests[0], digests[1])
		}
		t.Logf("seed %d digest %s", seed, digests[0])
		if want == "" {
			t.Errorf("seed %d: golden digest not recorded; pin %s", seed, digests[0])
			continue
		}
		if digests[0] != want {
			t.Errorf("seed %d: digest %s != golden %s (observable simulation output changed)", seed, digests[0], want)
		}
	}
}
