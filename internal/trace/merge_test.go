package trace

import (
	"math/rand"
	"testing"
	"time"
)

func mkKeyed(at time.Duration, order int, seq uint64) Keyed {
	return Keyed{
		Order: order,
		Seq:   seq,
		Ev: Event{
			At:     at,
			Device: "dev",
			Kind:   KindGenerated,
			Seq:    seq,
		},
	}
}

func TestMergeKeyedCanonicalOrder(t *testing.T) {
	a := []Keyed{
		mkKeyed(2*time.Second, 0, 0),
		mkKeyed(2*time.Second, 0, 1),
		mkKeyed(5*time.Second, 3, 0),
	}
	b := []Keyed{
		mkKeyed(time.Second, 7, 0),
		mkKeyed(2*time.Second, 0, 2),
		// Same millisecond as a[0] but earlier exact instant: the key
		// must order on the sub-millisecond instant the JSON drops.
		mkKeyed(2*time.Second-time.Microsecond, 9, 0),
	}
	got := MergeKeyed(a, b)
	if len(got) != 6 {
		t.Fatalf("merged %d events, want 6", len(got))
	}
	for i := 1; i < len(got); i++ {
		if keyedLess(got[i], got[i-1]) {
			t.Fatalf("merge out of order at %d: %+v before %+v", i, got[i-1], got[i])
		}
	}
	if got[0].Order != 7 || got[1].Order != 9 {
		t.Fatalf("unexpected head order: %+v", got[:2])
	}
	// Same (at, order): per-device seq breaks the tie.
	if got[2].Seq != 0 || got[3].Seq != 1 || got[4].Seq != 2 {
		t.Fatalf("seq tiebreak broken: %+v", got[2:5])
	}
}

func TestDigestPartitionIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var all []Keyed
	for order := 0; order < 10; order++ {
		for seq := uint64(0); seq < 20; seq++ {
			all = append(all, mkKeyed(time.Duration(rng.Int63n(int64(time.Minute))), order, seq))
		}
	}
	all = MergeKeyed(all)

	whole := NewDigest()
	whole.Add(all)
	wantSum, err := whole.Sum()
	if err != nil {
		t.Fatal(err)
	}

	// Re-shard the same events into 4 "tiles" and merge window by window.
	tiles := make([][]Keyed, 4)
	for _, e := range all {
		i := rng.Intn(4)
		tiles[i] = append(tiles[i], e)
	}
	sharded := NewDigest()
	window := 10 * time.Second
	for start := time.Duration(0); start < time.Minute; start += window {
		var bufs [][]Keyed
		for _, tl := range tiles {
			var in []Keyed
			for _, e := range tl {
				if e.Ev.At >= start && e.Ev.At < start+window {
					in = append(in, e)
				}
			}
			bufs = append(bufs, in)
		}
		sharded.Add(MergeKeyed(bufs...))
	}
	gotSum, err := sharded.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if gotSum != wantSum {
		t.Fatalf("sharded digest %s != sequential %s", gotSum, wantSum)
	}
	if whole.Events() != sharded.Events() {
		t.Fatalf("event counts diverge: %d vs %d", whole.Events(), sharded.Events())
	}
}

func TestDigestEmpty(t *testing.T) {
	d := NewDigest()
	sum, err := d.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if sum == "" || d.Events() != 0 {
		t.Fatalf("empty digest sum=%q events=%d", sum, d.Events())
	}
	d2 := NewDigest()
	sum2, _ := d2.Sum()
	if sum != sum2 {
		t.Fatal("empty digests differ")
	}
}
