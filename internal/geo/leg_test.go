package geo

import (
	"testing"
	"time"
)

// legCursor reads a walker the way the tile kernel's devices do: it keeps
// the leg it was last handed and goes back to the walker only for an instant
// at or past that leg's end.
type legCursor struct {
	w         *RandomWaypoint
	leg       Leg
	refreshes int
}

func (c *legCursor) pos(t time.Duration) Point {
	if t >= c.leg.End {
		c.leg = c.w.LegAt(t)
		c.refreshes++
	}
	return c.leg.At(t)
}

// TestLegCursorMatchesPos walks every walker case with a cursor at instants
// that only grow — an uneven step, plus every leg's exact start and the
// nanosecond before it — and compares each position with the reference
// walker's Pos, bit for bit. A cursor whose leg outlived its interval (the
// newest leg drawn has an end like any other) would stand still while the
// reference moves on.
func TestLegCursorMatchesPos(t *testing.T) {
	for _, c := range walkerCases() {
		w, err := NewRandomWaypoint(c.area, c.start, c.minSpeed, c.maxSpeed, c.pause, c.seed)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		ref := newResidentWalker(c.area, c.start, c.minSpeed, c.maxSpeed, c.pause, c.seed)
		cur := &legCursor{w: w}
		check := func(at time.Duration) {
			t.Helper()
			got, want := cur.pos(at), ref.Pos(at)
			if got != want {
				t.Fatalf("%v: cursor at %v = %v, Pos says %v (leg %+v)", c, at, got, want, cur.leg)
			}
			if at < cur.leg.Start || at >= cur.leg.End {
				t.Fatalf("%v: leg %+v handed out for %v does not contain it", c, cur.leg, at)
			}
		}
		step := c.horizon / 997
		for at := time.Duration(0); at < c.horizon; at += step {
			check(at)
			// The cursor's leg is the active one, so its end is the next
			// leg's start: probe both sides of the seam.
			if end := cur.leg.End; end < at+step && end < c.horizon {
				check(end - 1)
				check(end)
			}
		}
		if moves := (len(ref.legs) - 1) / 2; moves < 40 || cur.refreshes < 40 {
			t.Fatalf("%v: %d moves, %d refreshes; the case must cross ≥ 40 legs", c, moves, cur.refreshes)
		}
	}
}

// TestLegAtNewestLegExpires takes a leg while it is the newest one drawn:
// nothing has been generated behind it yet, and it must still end where the
// walk's next leg will start.
func TestLegAtNewestLegExpires(t *testing.T) {
	const pause = 20 * time.Second
	w, err := NewRandomWaypoint(Square(200), Point{50, 50}, 1, 2, pause, 7)
	if err != nil {
		t.Fatal(err)
	}
	first := w.LegAt(0)
	if first.Start != 0 || first.End != pause || first.From != first.To {
		t.Fatalf("initial pause = %+v, want [0, %v) standing still", first, pause)
	}
	move := w.LegAt(pause)
	if move.Start != pause || move.End <= move.Start || move.From != first.To {
		t.Fatalf("first move = %+v, want it to leave %v at %v", move, first.To, pause)
	}
	// The move's pause is the newest leg the walker holds.
	rest := w.LegAt(move.End)
	if rest.Start != move.End || rest.End != move.End+pause || rest.From != move.To || rest.To != move.To {
		t.Fatalf("pause after the first move = %+v, want [%v, %v) at %v", rest, move.End, move.End+pause, move.To)
	}
}

// TestRandomWaypointBackwardsAfterTrim asks for old instants after the walk
// has long dropped their legs: the answer is the one given the first time,
// and the walk carries on from there.
func TestRandomWaypointBackwardsAfterTrim(t *testing.T) {
	for _, c := range walkerCases() {
		w, err := NewRandomWaypoint(c.area, c.start, c.minSpeed, c.maxSpeed, c.pause, c.seed)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		var ats []time.Duration
		var first []Point
		for at := time.Duration(0); at <= c.horizon; at += c.horizon / 13 {
			ats = append(ats, at)
			first = append(first, w.Pos(at))
		}
		for _, i := range []int{3, 0, 12, 7, 7, 1, 13} {
			if got := w.Pos(ats[i]); got != first[i] {
				t.Fatalf("%v: Pos(%v) = %v on the way back, was %v", c, ats[i], got, first[i])
			}
		}
	}
}

// TestRandomWaypointResidentLegsBounded drives a vehicle through a day, once
// step by step and once in a single jump: the reference keeps thousands of
// legs, the walker room for two.
func TestRandomWaypointResidentLegsBounded(t *testing.T) {
	const day = 24 * time.Hour
	area := Square(1000)
	ref := newResidentWalker(area, Point{500, 500}, 8, 15, 0, 3)
	ref.Pos(day)
	if len(ref.legs) < 3000 {
		t.Fatalf("reference vehicle drew %d legs in a day; the case is too easy", len(ref.legs))
	}
	stepped, err := NewRandomWaypoint(area, Point{500, 500}, 8, 15, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for at := time.Duration(0); at <= day; at += 10 * time.Second {
		stepped.Pos(at)
	}
	jumped, err := NewRandomWaypoint(area, Point{500, 500}, 8, 15, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]*RandomWaypoint{"stepped": stepped, "jumped": jumped} {
		if got, want := w.Pos(day), ref.Pos(day); got != want {
			t.Fatalf("%s: Pos(day) = %v, want %v", name, got, want)
		}
		if len(w.legs) > 2 || cap(w.legs) > 2 {
			t.Fatalf("%s: %d legs resident (cap %d) after a day, want at most 2", name, len(w.legs), cap(w.legs))
		}
	}
}
