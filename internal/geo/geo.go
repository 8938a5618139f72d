// Package geo provides 2-D geometry and device mobility models for the
// simulation. Positions are in meters on a flat plane; the base station and
// all devices share one coordinate system.
package geo

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Point is a position on the simulation plane, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q in meters.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point {
	return Point{X: p.X + dx, Y: p.Y + dy}
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y)
}

// Rect is an axis-aligned rectangle describing the simulation area.
type Rect struct {
	Min, Max Point
}

// Square returns a side×side area anchored at the origin.
func Square(side float64) Rect {
	return Rect{Max: Point{X: side, Y: side}}
}

// Width returns the horizontal extent of the rectangle.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of the rectangle.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns p constrained to lie inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// RandomPoint draws a uniformly distributed point inside r: X first, then
// Y, one Float64 each (a *rand.Rand serves).
func (r Rect) RandomPoint(rng interface{ Float64() float64 }) Point {
	return Point{
		X: r.Min.X + rng.Float64()*r.Width(),
		Y: r.Min.Y + rng.Float64()*r.Height(),
	}
}

// Mobility yields a device's position as a function of virtual time.
// Implementations must be deterministic: the same instant always maps to the
// same position so that repeated queries agree.
type Mobility interface {
	// Pos returns the position at virtual instant at.
	Pos(at time.Duration) Point
}

// SpeedLimited is implemented by mobility models whose displacement rate is
// bounded: |Pos(t2) - Pos(t1)| <= MaxSpeed * (t2 - t1) for all t1 <= t2.
// Spatial indexes use the bound to refresh cached positions lazily; a model
// that cannot honour it must not implement the interface (it is then treated
// as unbounded and tracked exactly).
type SpeedLimited interface {
	Mobility
	// MaxSpeed returns the displacement bound in m/s. Zero means the model
	// never moves.
	MaxSpeed() float64
}

// Static is a Mobility that never moves.
type Static struct {
	P Point
}

var _ SpeedLimited = Static{}

// Pos implements Mobility.
func (s Static) Pos(time.Duration) Point { return s.P }

// MaxSpeed implements SpeedLimited: a static device never moves.
func (s Static) MaxSpeed() float64 { return 0 }

// waypointLeg is one precomputed leg of a random-waypoint walk.
type waypointLeg struct {
	start    time.Duration
	from, to Point
	duration time.Duration
}

// drawBuffer is how many pre-drawn floats a walker holds: eight legs of
// three draws (destination X, Y, speed).
const drawBuffer = 24

// math/rand's source is an additive lagged-Fibonacci generator: each output
// is the register word at the feed plus the one rngTap slots behind it,
// written back at the feed. Seeding fills the rngLen-word register from an
// LCG, x ← 48271·x mod (2³¹−1), started at the reduced seed.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
)

// rngPow[n] is 48271ⁿ mod (2³¹−1), so the LCG's state n steps after s is
// rngPow[n]·s mod (2³¹−1). Seeding takes 20 + 3·rngLen steps.
var rngPow = func() (pow [21 + 3*rngLen]uint32) {
	pow[0] = 1
	for n := 1; n < len(pow); n++ {
		pow[n] = uint32(uint64(pow[n-1]) * 48271 % int32max)
	}
	return pow
}()

// rngCooked is the constant math/rand XORs into each initial register word,
// read back from the source: seed 1's first rngLen outputs fix every initial
// word (rngOutput run backwards), and XORing out the LCG part leaves it.
var rngCooked = func() (cooked [rngLen]uint64) {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	for k := rngLen - 1; k >= rngTap; k-- {
		cooked[(940-k)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := rngTap - 1; k >= 0; k-- {
		cooked[333-k] = out[k] - cooked[606-k]
	}
	for i := range cooked {
		cooked[i] ^= lcgWord(1, i)
	}
	return cooked
}()

// reducedSeed is the LCG's starting state for seed, as rngSource.Seed
// derives it.
func reducedSeed(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lcgWord is the LCG's share of initial register word i under reduced seed
// s: three consecutive states, after the 20 that seeding discards, packed.
func lcgWord(s uint64, i int) uint64 {
	p := rngPow[21+3*i : 24+3*i]
	return uint64(p[0])*s%int32max<<40 ^ uint64(p[1])*s%int32max<<20 ^ uint64(p[2])*s%int32max
}

// initWord is initial register word i of rand.NewSource with reduced seed s.
func initWord(s uint64, i int) uint64 { return lcgWord(s, i) ^ rngCooked[i] }

// rngOutput is output k < rngLen of rand.NewSource with reduced seed s. In
// the first pass over the register the feed slot still holds its initial
// word, the tap slot its initial word (k < rngTap) or output k−rngTap.
func rngOutput(s uint64, k int) uint64 {
	switch {
	case k < rngTap:
		return initWord(s, 333-k) + initWord(s, 606-k)
	case k < rngLen-rngTap:
		return initWord(s, 333-k) + rngOutput(s, k-rngTap)
	default:
		return initWord(s, 940-k) + rngOutput(s, k-rngTap)
	}
}

// drawSources lends math/rand sources to refills past the closed form: at
// 4.9 KB each, one kept per walker was half of a built city's heap.
var drawSources = sync.Pool{
	New: func() any { return rand.NewSource(0).(rand.Source64) },
}

// drawStream is the Float64 stream of rand.New(rand.NewSource(seed)),
// bit for bit, without a resident generator: it remembers the seed and how
// many source outputs it has consumed, and refills a fixed buffer once per
// drawBuffer draws. Outputs below rngLen come from rngOutput (a refill
// ~0.5 µs); past that a refill re-seeds a borrowed source (~10 µs) and
// skips what was already consumed.
type drawStream struct {
	seed  int64
	taken uint32 // source outputs consumed so far, buffered draws included
	next  uint8  // index of the next unread float in buf
	buf   [drawBuffer]float64
}

func newDrawStream(seed int64) drawStream {
	d := drawStream{seed: seed}
	d.refill()
	return d
}

func (d *drawStream) refill() {
	s := reducedSeed(d.seed)
	var src rand.Source64
	for i := 0; i < drawBuffer; {
		var u uint64
		if d.taken < rngLen {
			u = rngOutput(s, int(d.taken))
		} else {
			if src == nil {
				src = drawSources.Get().(rand.Source64)
				src.Seed(d.seed)
				for j := uint32(0); j < d.taken; j++ {
					src.Uint64()
				}
			}
			u = src.Uint64()
		}
		d.taken++
		if f, ok := unitFloat(u); ok {
			d.buf[i] = f
			i++
		}
	}
	if src != nil {
		drawSources.Put(src)
	}
	d.next = 0
}

// unitFloat is (*rand.Rand).Float64 applied to one source output; ok is
// false for the outputs that round to 1, which Float64 skips.
func unitFloat(u uint64) (f float64, ok bool) {
	f = float64(int64(u&(1<<63-1))) / (1 << 63)
	return f, f != 1
}

// Float64 returns the stream's next draw.
func (d *drawStream) Float64() float64 {
	if d.next == drawBuffer {
		d.refill()
	}
	f := d.buf[d.next]
	d.next++
	return f
}

// Leg is the piece of a walk a device is on at some instant: it moves from
// From to To over [Start, End), or stands still when the two coincide. A
// caller that keeps the Leg can answer every position query inside that
// interval itself and needs the walker again only from End on.
type Leg struct {
	From, To   Point
	Start, End time.Duration
}

// At returns the position at instant t, which must lie in [Start, End). It
// interpolates exactly as RandomWaypoint.Pos does, bit for bit.
func (l Leg) At(t time.Duration) Point {
	return interpolate(waypointLeg{start: l.Start, from: l.From, to: l.To, duration: l.End - l.Start}, t)
}

// RandomWaypoint is the classic random-waypoint mobility model: the device
// repeatedly picks a uniform destination in the area and walks there at a
// speed drawn uniformly from [MinSpeed, MaxSpeed], pausing Pause at each
// waypoint. Legs are drawn lazily, so Pos is deterministic, and only the
// newest move and its pause stay resident: the walk behind them can be
// re-derived from the seed.
type RandomWaypoint struct {
	area     Rect
	minSpeed float64 // m/s
	maxSpeed float64 // m/s
	pause    time.Duration
	origin   Point // where the walk began, for rewind
	draws    drawStream
	// legs is the retained tail of the walk, contiguous in time and never
	// empty: the initial pause, or the last move drawn and its pause.
	legs []waypointLeg
}

var _ Mobility = (*RandomWaypoint)(nil)

// NewRandomWaypoint builds a random-waypoint walker starting at start.
// Speeds are in m/s; both must be positive and minSpeed <= maxSpeed.
func NewRandomWaypoint(area Rect, start Point, minSpeed, maxSpeed float64, pause time.Duration, seed int64) (*RandomWaypoint, error) {
	if minSpeed <= 0 || maxSpeed < minSpeed {
		return nil, fmt.Errorf("geo: invalid speed range [%v, %v]", minSpeed, maxSpeed)
	}
	if !area.Contains(start) {
		return nil, fmt.Errorf("geo: start %v outside area", start)
	}
	w := &RandomWaypoint{
		area:     area,
		minSpeed: minSpeed,
		maxSpeed: maxSpeed,
		pause:    pause,
		origin:   start,
		legs:     make([]waypointLeg, 0, 2),
	}
	w.rewind(seed)
	return w, nil
}

// rewind puts the walk back at its origin, pausing, with a fresh draw stream.
func (w *RandomWaypoint) rewind(seed int64) {
	w.draws = newDrawStream(seed)
	w.legs = append(w.legs[:0], waypointLeg{from: w.origin, to: w.origin, duration: w.pause})
}

// Pos implements Mobility. Queries may arrive in any order; see LegAt.
func (w *RandomWaypoint) Pos(at time.Duration) Point {
	if at < 0 {
		at = 0
	}
	return w.LegAt(at).At(at)
}

// LegAt returns the leg active at instant at (negative instants count as
// zero), so that Start <= at < End. Queries may arrive in any order: the
// walk is extended as far as needed, and a query that falls before the
// retained legs replays the walk from its seed — callers whose instants
// only grow, as both simulation kernels' are, never pay for that.
func (w *RandomWaypoint) LegAt(at time.Duration) Leg {
	if at < 0 {
		at = 0
	}
	if at < w.legs[0].start {
		w.rewind(w.draws.seed)
	}
	w.extend(at)
	// The last leg ends after at and the first starts at or before it. Scan
	// from the end: with pause == 0 a zero-length pause shares its start
	// instant with the move that follows, and the later leg is the active
	// one.
	i := len(w.legs) - 1
	for w.legs[i].start > at {
		i--
	}
	leg := w.legs[i]
	return Leg{From: leg.from, To: leg.to, Start: leg.start, End: leg.start + leg.duration}
}

// extend draws legs until the retained walk covers instant at. Whatever was
// retained ends at or before at by then, so each new move and its pause
// replace it.
func (w *RandomWaypoint) extend(at time.Duration) {
	for {
		last := w.legs[len(w.legs)-1]
		end := last.start + last.duration
		if end > at {
			return
		}
		from := last.to
		to := w.area.RandomPoint(&w.draws)
		speed := w.minSpeed + w.draws.Float64()*(w.maxSpeed-w.minSpeed)
		dist := from.Dist(to)
		travel := time.Duration(dist / speed * float64(time.Second))
		if travel <= 0 {
			travel = time.Millisecond
		}
		w.legs = append(w.legs[:0],
			waypointLeg{start: end, from: from, to: to, duration: travel},
			waypointLeg{start: end + travel, from: to, to: to, duration: w.pause},
		)
	}
}

// MaxSpeed implements SpeedLimited: every leg's speed is drawn from
// [minSpeed, maxSpeed] and pauses do not move, so maxSpeed bounds the walk.
func (w *RandomWaypoint) MaxSpeed() float64 { return w.maxSpeed }

func interpolate(leg waypointLeg, at time.Duration) Point {
	if leg.duration <= 0 || leg.from == leg.to {
		return leg.to
	}
	frac := float64(at-leg.start) / float64(leg.duration)
	if frac > 1 {
		frac = 1
	}
	return Point{
		X: leg.from.X + (leg.to.X-leg.from.X)*frac,
		Y: leg.from.Y + (leg.to.Y-leg.from.Y)*frac,
	}
}

// Orbit is a Mobility that circles a center at a fixed radius and angular
// speed. It is useful for controlled distance sweeps: a device orbiting a
// static relay keeps an exact, analytically known separation.
type Orbit struct {
	Center Point
	Radius float64 // m
	Omega  float64 // rad/s, may be zero for a fixed offset
	Phase  float64 // rad at t=0
}

var _ SpeedLimited = Orbit{}

// Pos implements Mobility.
func (o Orbit) Pos(at time.Duration) Point {
	theta := o.Phase + o.Omega*at.Seconds()
	return Point{
		X: o.Center.X + o.Radius*math.Cos(theta),
		Y: o.Center.Y + o.Radius*math.Sin(theta),
	}
}

// MaxSpeed implements SpeedLimited: tangential speed is |Omega| * Radius.
func (o Orbit) MaxSpeed() float64 { return math.Abs(o.Omega) * o.Radius }

// Line is a Mobility that departs From at Start and moves toward To at
// Speed m/s, stopping on arrival. Before Start the device sits at From.
type Line struct {
	From, To Point
	Speed    float64 // m/s
	Start    time.Duration
}

var _ SpeedLimited = Line{}

// Pos implements Mobility.
func (l Line) Pos(at time.Duration) Point {
	if at <= l.Start || l.Speed <= 0 {
		return l.From
	}
	dist := l.From.Dist(l.To)
	if dist == 0 {
		return l.To
	}
	travelled := l.Speed * (at - l.Start).Seconds()
	if travelled >= dist {
		return l.To
	}
	frac := travelled / dist
	return Point{
		X: l.From.X + (l.To.X-l.From.X)*frac,
		Y: l.From.Y + (l.To.Y-l.From.Y)*frac,
	}
}

// MaxSpeed implements SpeedLimited: the device is stationary before Start
// and after arrival, and moves at Speed in between.
func (l Line) MaxSpeed() float64 {
	if l.Speed < 0 {
		return 0
	}
	return l.Speed
}
