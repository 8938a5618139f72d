package d2d

import (
	"fmt"
	"math"
	"slices"

	"d2dhb/internal/geo"
	"d2dhb/internal/hbmsg"
)

// Beacon is one relay's advertised state as frozen at a tile-window
// boundary of the parallel city kernel. Between boundaries every tile
// scans against the same immutable snapshot, which is what makes a scan's
// outcome independent of how devices are partitioned across tiles.
type Beacon struct {
	ID hbmsg.DeviceID
	// Order is the device's stable population index; candidate lists are
	// ordered by it so RSSI draws consume the scanner's RNG stream in a
	// partition-independent order.
	Order        int
	Pos          geo.Point
	Accepting    bool
	FreeCapacity int
	Intent       int
}

// BeaconIndex answers radius-bounded neighborhood queries over a beacon
// snapshot via a uniform grid, mirroring Medium's discovery grid. Cell
// size must be at least the radio range: snapshot positions are exact, so
// the 3×3 cell block around a query point covers every in-range beacon.
//
// The grid is dense: the cells of the snapshot's bounding box, row-major,
// each cell a run of one array that holds the beacons sorted by cell. A
// query hashes nothing, and a row of the 3×3 block is one contiguous run.
// Memory is the bounding box in cells, which suits a snapshot confined to a
// simulated area and is why Rebuild bounds the box. The index is rebuilt at each window boundary; Rebuild
// reuses its arrays, so steady-state rebuilds do not allocate.
type BeaconIndex struct {
	cellSize float64
	// The bounding box covers cells [minX, minX+w) × [minY, minY+h); cell
	// (cx, cy) is number (cy-minY)*w + (cx-minX) and holds
	// items[start[c]:start[c+1]], in snapshot order.
	minX, minY, w, h int
	start            []int32
	items            []Beacon
	cellOfItem       []cellKey // Rebuild scratch: each beacon's cell
}

// A snapshot's bounding box may hold minBeaconCells cells whatever its size
// (a 4 MiB table: 100 km on a side at a 100 m range) and beyond that
// beaconCellsPerBeacon cells per beacon; Rebuild panics past it.
const (
	minBeaconCells       = 1 << 20
	beaconCellsPerBeacon = 16
)

// NewBeaconIndex returns an empty index with the given cell size.
func NewBeaconIndex(cellSize float64) (*BeaconIndex, error) {
	if cellSize <= 0 || math.IsNaN(cellSize) {
		return nil, fmt.Errorf("d2d: beacon cell size %v must be positive", cellSize)
	}
	return &BeaconIndex{cellSize: cellSize}, nil
}

// Rebuild replaces the index contents with the given snapshot. It panics if
// the snapshot's bounding box is out of all proportion to it (see
// minBeaconCells).
func (x *BeaconIndex) Rebuild(beacons []Beacon) {
	x.w, x.h = 0, 0
	if len(beacons) == 0 {
		return
	}
	x.cellOfItem = slices.Grow(x.cellOfItem[:0], len(beacons))[:len(beacons)]
	// The bounding box is taken in floating point, where a position that is
	// not a number or not finite still shows (min and max pass a NaN on);
	// what converting it to a cell gives is the platform's choice.
	loX, loY, hiX, hiY := math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
	for i := range beacons {
		fx, fy := math.Floor(beacons[i].Pos.X/x.cellSize), math.Floor(beacons[i].Pos.Y/x.cellSize)
		x.cellOfItem[i] = cellKey{cx: int32(fx), cy: int32(fy)}
		loX, hiX = min(loX, fx), max(hiX, fx)
		loY, hiY = min(loY, fy), max(hiY, fy)
	}
	// One stray position would size the cell table by the distance to it.
	w, h := hiX-loX+1, hiY-loY+1
	limit := max(minBeaconCells, beaconCellsPerBeacon*len(beacons))
	if !(w*h <= float64(limit) && min(loX, loY) >= math.MinInt32 && max(hiX, hiY) <= math.MaxInt32) {
		panic(fmt.Sprintf("d2d: beacon snapshot spans %v × %v cells for %d beacons: positions must be finite and confined to the simulated area",
			w, h, len(beacons)))
	}
	x.minX, x.minY, x.w, x.h = int(loX), int(loY), int(w), int(h)

	// Counting sort by cell: count into start[c+1], prefix-sum so start[c]
	// is where cell c begins, then place each beacon at its cell's cursor.
	// Placing advances start[c] to the cell's end — the next cell's
	// beginning — so shifting the array up by one restores it.
	x.start = slices.Grow(x.start[:0], x.w*x.h+1)[:x.w*x.h+1]
	clear(x.start)
	for _, k := range x.cellOfItem {
		x.start[x.cellNumber(k)+1]++
	}
	for c := 1; c < len(x.start); c++ {
		x.start[c] += x.start[c-1]
	}
	x.items = slices.Grow(x.items[:0], len(beacons))[:len(beacons)]
	for i, k := range x.cellOfItem {
		c := x.cellNumber(k)
		x.items[x.start[c]] = beacons[i]
		x.start[c]++
	}
	copy(x.start[1:], x.start)
	x.start[0] = 0
}

// cellNumber is the row-major number of a cell inside the bounding box.
func (x *BeaconIndex) cellNumber(k cellKey) int {
	return (int(k.cy)-x.minY)*x.w + (int(k.cx) - x.minX)
}

func (x *BeaconIndex) cellOf(p geo.Point) cellKey {
	return cellKey{
		cx: int32(math.Floor(p.X / x.cellSize)),
		cy: int32(math.Floor(p.Y / x.cellSize)),
	}
}

// Neighborhood appends every beacon in the 3×3 cell block around p to out
// and returns it sorted by Order. The result is a superset of the beacons
// within cellSize of p; callers apply the exact range check themselves.
func (x *BeaconIndex) Neighborhood(p geo.Point, out []Beacon) []Beacon {
	k := x.cellOf(p)
	// The block, clipped to the bounding box, in box coordinates.
	cx, cy := int(k.cx)-x.minX, int(k.cy)-x.minY
	x0, x1 := max(cx-1, 0), min(cx+1, x.w-1)
	y0, y1 := max(cy-1, 0), min(cy+1, x.h-1)
	if x0 > x1 {
		return out
	}
	for y := y0; y <= y1; y++ {
		row := y * x.w
		out = append(out, x.items[x.start[row+x0]:x.start[row+x1+1]]...)
	}
	slices.SortFunc(out, func(a, b Beacon) int { return a.Order - b.Order })
	return out
}
