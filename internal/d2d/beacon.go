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
// The index is rebuilt at each window boundary; Rebuild reuses the cell
// map and its buckets, so steady-state rebuilds stay allocation-light.
type BeaconIndex struct {
	cellSize float64
	cells    map[cellKey][]Beacon
}

// NewBeaconIndex returns an empty index with the given cell size.
func NewBeaconIndex(cellSize float64) (*BeaconIndex, error) {
	if cellSize <= 0 || math.IsNaN(cellSize) {
		return nil, fmt.Errorf("d2d: beacon cell size %v must be positive", cellSize)
	}
	return &BeaconIndex{
		cellSize: cellSize,
		cells:    make(map[cellKey][]Beacon),
	}, nil
}

// Rebuild replaces the index contents with the given snapshot.
func (x *BeaconIndex) Rebuild(beacons []Beacon) {
	for k, bucket := range x.cells {
		x.cells[k] = bucket[:0]
	}
	for _, b := range beacons {
		k := x.cellOf(b.Pos)
		x.cells[k] = append(x.cells[k], b)
	}
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
	center := x.cellOf(p)
	for dy := int32(-1); dy <= 1; dy++ {
		for dx := int32(-1); dx <= 1; dx++ {
			out = append(out, x.cells[cellKey{cx: center.cx + dx, cy: center.cy + dy}]...)
		}
	}
	slices.SortFunc(out, func(a, b Beacon) int { return a.Order - b.Order })
	return out
}
