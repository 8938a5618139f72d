package loadgen

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"d2dhb/internal/experiments"
	"d2dhb/internal/faultnet"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/rec"
)

// corpusPath is the committed reference trace: a trunked fleet over a
// 3-shard cluster under a seeded fault schedule. It pins the rec codec and
// the sim's determinism against a real artifact instead of a fresh
// recording, so a codec or scheduler change that breaks old traces fails
// here before it ships.
const corpusPath = "testdata/corpus/trunked_cluster_3shard.d2dr"

// corpusFaultSpec seeds the recorded run's chaos; the seed lands in the
// trace so the sim replay is reproducible from the file alone.
const corpusFaultSpec = "seed=42,latency=2ms,jitter=1ms,corrupt=0.02"

// TestRegenerateCorpus rewrites the committed fixture. It only runs when
// explicitly asked (D2D_REGEN_CORPUS=1) — e.g. after an intentional codec
// change — and the rewritten file must be committed alongside that change.
func TestRegenerateCorpus(t *testing.T) {
	if os.Getenv("D2D_REGEN_CORPUS") == "" {
		t.Skip("set D2D_REGEN_CORPUS=1 to rewrite the corpus fixture")
	}
	sched, err := faultnet.ParseSpec(corpusFaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	routerURL, _, _ := startTestCluster(t, 3)
	tl := recordRun(t, Config{
		UEs:         24,
		Trunks:      3,
		Profiles:    []hbmsg.AppProfile{fastProfile(60 * time.Millisecond)},
		Duration:    600 * time.Millisecond,
		AckTimeout:  400 * time.Millisecond,
		ClusterAddr: routerURL,
		Net:         sched.On(faultnet.OS{}),
	})
	if len(tl.Faults) == 0 {
		t.Fatal("regenerated run recorded no fault windows; fixture would be toothless")
	}
	if err := os.MkdirAll(filepath.Dir(corpusPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := tl.WriteFile(corpusPath); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s: %d clients, %d sends, digest %s", corpusPath, len(tl.Clients), tl.Sends(), tl.Digest())
}

func loadCorpus(t *testing.T) *rec.Timeline {
	t.Helper()
	tl, err := rec.ReadFile(corpusPath)
	if err != nil {
		t.Fatalf("corpus fixture unreadable (regenerate with D2D_REGEN_CORPUS=1): %v", err)
	}
	return tl
}

// TestCorpusTrace checks the committed fixture's invariants: it validates,
// survives its own codec bit-identically, records a trunked cluster fleet
// with fault windows, and replays through the sim deterministically.
func TestCorpusTrace(t *testing.T) {
	tl := loadCorpus(t)
	if err := tl.Validate(); err != nil {
		t.Fatalf("corpus does not validate: %v", err)
	}
	rt, err := rec.Decode(tl.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Digest() != tl.Digest() {
		t.Fatal("corpus digest changed across a codec round trip")
	}
	if tl.Seed != 42 {
		t.Fatalf("corpus seed %d, want the fault schedule's 42", tl.Seed)
	}
	if len(tl.Faults) == 0 {
		t.Fatal("corpus has no fault windows")
	}
	if len(tl.Clients) != 24 || tl.Sends() == 0 {
		t.Fatalf("corpus shape: %d clients, %d sends", len(tl.Clients), tl.Sends())
	}
	groups := map[int]bool{}
	for _, c := range tl.Clients {
		if c.Path != rec.PathTrunked {
			t.Fatalf("corpus client %+v is not trunked", c)
		}
		groups[c.Relay] = true
	}
	if len(groups) != 3 {
		t.Fatalf("corpus trunk groups %d, want 3", len(groups))
	}

	sim1, err := experiments.ReplaySim(tl)
	if err != nil {
		t.Fatal(err)
	}
	sim2, err := experiments.ReplaySim(tl)
	if err != nil {
		t.Fatal(err)
	}
	if sim1.Digest() != sim2.Digest() {
		t.Fatalf("sim replay of the corpus not deterministic: %s vs %s", sim1.Digest(), sim2.Digest())
	}
	if sim1.Sent != uint64(tl.Sends()) {
		t.Fatalf("sim replayed %d of %d corpus sends", sim1.Sent, tl.Sends())
	}
}

// TestCorpusClusterReplay replays the committed trace against a fresh
// 3-shard cluster: every recorded send must go back out, partitioned per
// shard through the live epoch config, and the live delivery ratio must
// match the sim replay's.
func TestCorpusClusterReplay(t *testing.T) {
	tl := loadCorpus(t)
	routerURL, _, shards := startTestCluster(t, 3)
	m, err := ReplayLive(tl, ReplayOptions{ClusterAddr: routerURL, Speedup: 4, AckTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if int(m.Sent) != tl.Sends() {
		t.Fatalf("replayed %d of %d corpus sends", m.Sent, tl.Sends())
	}
	if m.Delivered == 0 || m.Signaling.Batches == 0 {
		t.Fatalf("corpus replay moved nothing: %+v", m)
	}
	sim, err := experiments.ReplaySim(tl)
	if err != nil {
		t.Fatal(err)
	}
	// The gap has been 0.0000 since the fixture was recorded; 0.10 is the
	// most the parity gate ever allowed it to grow.
	gap := rec.NewParityReport(tl, tl.RecordedMetrics(), sim, m).DeliveryGap()
	t.Logf("sim-vs-live delivery gap %.4f: live delivered %d of %d in %d uplinks", gap, m.Delivered, m.Sent, m.Signaling.Uplinks)
	if gap > 0.10 {
		t.Errorf("sim-vs-live delivery gap %.4f on the corpus trace, want ≤ 0.10", gap)
	}
	served := 0
	for _, sh := range shards {
		st := sh.srv.Stats()
		if st.HeartbeatsDirect+st.HeartbeatsRelayed > 0 {
			served++
		}
	}
	if served < 2 {
		t.Errorf("corpus replay reached only %d shards", served)
	}
}
