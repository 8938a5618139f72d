package d2d

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
)

func TestBeaconIndexValidation(t *testing.T) {
	if _, err := NewBeaconIndex(0); err == nil {
		t.Fatal("zero cell size accepted")
	}
	if _, err := NewBeaconIndex(-1); err == nil {
		t.Fatal("negative cell size accepted")
	}
}

func TestBeaconIndexNeighborhoodCoversRange(t *testing.T) {
	const cell = 35.0
	x, err := NewBeaconIndex(cell)
	if err != nil {
		t.Fatal(err)
	}
	var beacons []Beacon
	for i := 0; i < 100; i++ {
		beacons = append(beacons, Beacon{
			ID:    hbmsg.DeviceID(fmt.Sprintf("r%03d", i)),
			Order: i,
			Pos:   geo.Point{X: float64(i%10) * 12, Y: float64(i/10) * 12},
		})
	}
	x.Rebuild(beacons)

	q := geo.Point{X: 50, Y: 50}
	got := x.Neighborhood(q, nil)
	found := make(map[int]bool, len(got))
	for _, b := range got {
		found[b.Order] = true
	}
	for _, b := range beacons {
		if q.Dist(b.Pos) <= cell && !found[b.Order] {
			t.Fatalf("beacon %d at %+v within %v of %+v missing from neighborhood", b.Order, b.Pos, cell, q)
		}
	}
}

func TestBeaconIndexNeighborhoodSortedByOrder(t *testing.T) {
	x, err := NewBeaconIndex(35)
	if err != nil {
		t.Fatal(err)
	}
	// Insert out of order; all in one neighborhood.
	x.Rebuild([]Beacon{
		{Order: 5, Pos: geo.Point{X: 10, Y: 10}},
		{Order: 1, Pos: geo.Point{X: 20, Y: 10}},
		{Order: 3, Pos: geo.Point{X: 40, Y: 10}}, // adjacent cell
	})
	got := x.Neighborhood(geo.Point{X: 20, Y: 10}, nil)
	if len(got) != 3 {
		t.Fatalf("got %d beacons, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Order >= got[i].Order {
			t.Fatalf("neighborhood not sorted by Order: %+v", got)
		}
	}
}

func TestBeaconIndexRebuildReplaces(t *testing.T) {
	x, err := NewBeaconIndex(35)
	if err != nil {
		t.Fatal(err)
	}
	x.Rebuild([]Beacon{{Order: 0, Pos: geo.Point{X: 5, Y: 5}}})
	if got := x.Neighborhood(geo.Point{X: 5, Y: 5}, nil); len(got) != 1 {
		t.Fatalf("got %d beacons after first rebuild, want 1", len(got))
	}
	x.Rebuild([]Beacon{{Order: 1, Pos: geo.Point{X: 500, Y: 500}}})
	if got := x.Neighborhood(geo.Point{X: 5, Y: 5}, nil); len(got) != 0 {
		t.Fatalf("stale beacons survived rebuild: %+v", got)
	}
	if got := x.Neighborhood(geo.Point{X: 500, Y: 500}, nil); len(got) != 1 || got[0].Order != 1 {
		t.Fatalf("new beacon missing after rebuild: %+v", got)
	}
	// Reuse buffer path.
	buf := make([]Beacon, 0, 8)
	if got := x.Neighborhood(geo.Point{X: 500, Y: 500}, buf[:0]); len(got) != 1 {
		t.Fatalf("buffer reuse path broken: %+v", got)
	}
}

// bruteNeighborhood is what Neighborhood promises, computed without the
// grid: every beacon whose cell is in the 3×3 block around p's, by Order.
func bruteNeighborhood(beacons []Beacon, cell float64, p geo.Point) []Beacon {
	cellOf := func(q geo.Point) (int, int) {
		return int(math.Floor(q.X / cell)), int(math.Floor(q.Y / cell))
	}
	px, py := cellOf(p)
	var out []Beacon
	for _, b := range beacons {
		if bx, by := cellOf(b.Pos); bx >= px-1 && bx <= px+1 && by >= py-1 && by <= py+1 {
			out = append(out, b)
		}
	}
	slices.SortFunc(out, func(a, b Beacon) int { return a.Order - b.Order })
	return out
}

// TestBeaconIndexMatchesBruteForce rebuilds one index over a sequence of
// random snapshots whose bounding boxes move, grow and shrink — negative
// coordinates, a single beacon, none at all and two a city apart included —
// and queries each from inside, on the edge of and far outside the box. A bucket surviving
// from an earlier, larger snapshot would show up as an extra candidate.
func TestBeaconIndexMatchesBruteForce(t *testing.T) {
	const cell = 35.0
	x, err := NewBeaconIndex(cell)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	// {beacons, origin, extent}: grows, shrinks, empties, moves, grows again.
	shapes := []struct {
		n              int
		origin, extent float64
	}{
		{200, 0, 1000}, {500, -700, 2000}, {30, 100, 90}, {0, 0, 0}, {1, -5000, 1},
		{300, -300, 600}, {2, 0, 10}, {400, 5000, 800}, {2, -15000, 30000}, {50, 0, 400},
	}
	for round, sh := range shapes {
		beacons := make([]Beacon, sh.n)
		for i := range beacons {
			beacons[i] = Beacon{
				ID: hbmsg.DeviceID(fmt.Sprintf("r%d-%03d", round, i)), Order: i, Accepting: true, FreeCapacity: i % 5,
				Pos: geo.Point{X: sh.origin + rng.Float64()*sh.extent, Y: sh.origin + rng.Float64()*sh.extent},
			}
		}
		x.Rebuild(beacons)
		var buf []Beacon
		for q := 0; q < 300; q++ {
			// A third of the queries land well outside the box on each side.
			p := geo.Point{
				X: sh.origin + (rng.Float64()*3-1)*(sh.extent+2*cell),
				Y: sh.origin + (rng.Float64()*3-1)*(sh.extent+2*cell),
			}
			buf = x.Neighborhood(p, buf[:0])
			want := bruteNeighborhood(beacons, cell, p)
			if !slices.Equal(buf, want) {
				t.Fatalf("round %d (%d beacons) query %+v: got %d candidates %v, brute force %d %v",
					round, sh.n, p, len(buf), orders(buf), len(want), orders(want))
			}
		}
	}
}

// TestBeaconIndexRejectsStrayPositions: the cell table is the snapshot's
// bounding box, so one position that is not a number, not finite or merely
// nowhere near the rest must stop Rebuild with a message, not size the
// table by its distance — and the index must serve the next snapshot.
func TestBeaconIndexRejectsStrayPositions(t *testing.T) {
	const cell = 35.0
	x, err := NewBeaconIndex(cell)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	city := make([]Beacon, 200)
	for i := range city {
		city[i] = Beacon{Order: i, Pos: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}}
	}
	for _, stray := range []geo.Point{
		{X: math.NaN(), Y: 500}, {X: 500, Y: math.Inf(1)}, {X: math.Inf(-1), Y: math.Inf(1)},
		{X: 1e300, Y: 500}, {X: 500, Y: -1e12}, {X: 1e6, Y: 1e6},
	} {
		snapshot := append(slices.Clone(city), Beacon{Order: len(city), Pos: stray})
		if stray.X == 1e300 {
			// A tight box, but of cells no int32 numbers.
			snapshot = []Beacon{{Pos: stray}, {Order: 1, Pos: stray}}
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "beacon snapshot spans") {
					t.Fatalf("stray position %+v: Rebuild panicked with %q, want the bounding-box message", stray, msg)
				}
			}()
			x.Rebuild(snapshot)
			t.Fatalf("stray position %+v: Rebuild accepted a %d × %d cell table", stray, x.w, x.h)
		}()
		if got := x.Neighborhood(geo.Point{X: 500, Y: 500}, nil); len(got) != 0 {
			t.Fatalf("stray position %+v: the refused snapshot left %d candidates behind", stray, len(got))
		}
		x.Rebuild(city)
		p := geo.Point{X: 500, Y: 500}
		if got, want := x.Neighborhood(p, nil), bruteNeighborhood(city, cell, p); !slices.Equal(got, want) {
			t.Fatalf("after stray position %+v: got %v, brute force %v", stray, orders(got), orders(want))
		}
	}
}

func orders(bs []Beacon) []int {
	out := make([]int, len(bs))
	for i, b := range bs {
		out[i] = b.Order
	}
	return out
}

// TestBeaconIndexSteadyStateZeroAllocs: once the arrays have grown to the
// snapshot, a boundary's Rebuild and a scan's Neighborhood allocate
// nothing.
func TestBeaconIndexSteadyStateZeroAllocs(t *testing.T) {
	x, err := NewBeaconIndex(35)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	beacons := make([]Beacon, 1000)
	for i := range beacons {
		beacons[i] = Beacon{Order: i, Pos: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}}
	}
	x.Rebuild(beacons)
	buf := x.Neighborhood(geo.Point{X: 500, Y: 500}, make([]Beacon, 0, 64))
	if len(buf) == 0 {
		t.Fatal("no candidates at the centre of a 1000-relay city")
	}
	allocs := testing.AllocsPerRun(100, func() {
		x.Rebuild(beacons)
		buf = x.Neighborhood(geo.Point{X: 500, Y: 500}, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady-state Rebuild + Neighborhood allocates %v times", allocs)
	}
}
