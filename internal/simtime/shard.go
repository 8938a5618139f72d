package simtime

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// TileGroup runs one Scheduler per spatial tile in lockstep windows — a
// conservative-lookahead (BSP-style) parallel kernel. Virtual time is cut
// into windows of fixed length W. Within a window every tile executes its
// own events independently on a worker goroutine; cross-tile effects are
// exchanged only at window boundaries, where all tiles have advanced to
// exactly the same instant. The caller supplies three hooks:
//
//   - begin(tile, start) runs on the tile's worker at the start of each
//     window, before any of the window's events — the place to take on
//     what the barrier routed here: Attach the agendas of arriving
//     entities, then sort and apply the inbound cross-tile operations.
//   - end(tile, boundary) runs on the tile's worker after the window's
//     events, with the tile clock already at the boundary — the place to
//     snapshot tile-owned state (positions, advertised capacities), put
//     the tile's own outbound lists in order and Detach the agendas of
//     entities that have left the tile, all in parallel before the barrier
//     reads any of it.
//   - barrier(boundary, final) runs on the driving goroutine once every
//     tile has reached the boundary — the place for what is global:
//     routing outbound operations and departed entities to their next
//     tile, merging the tiles' sorted logs, rebuilding shared snapshots.
//
// A window covers [start, start+W): events scheduled exactly at a
// boundary belong to the next window, after that boundary's barrier. The
// final window is closed — events exactly at the horizon fire — matching
// Scheduler.RunUntil semantics.
//
// Memory ordering: the job/result channels are the only synchronization.
// A worker's result send happens before the barrier runs, and the
// barrier's return happens before any worker receives its next job, so
// hooks need no locks of their own as long as begin, end and the window's
// events touch only tile-owned state plus whatever the barrier explicitly
// handed over. That covers an entity changing tiles, whose hand-over is
// split across two workers: the old tile's end hook detaches its agenda
// while other tiles are still inside their windows — nothing else may
// touch the entity then — and the new tile's begin hook attaches it one
// barrier later.
type TileGroup struct {
	scheds []*Scheduler
}

// NewTileGroup creates n schedulers, each seeded with an independent
// stream derived from seed, so per-tile random draws never correlate
// across tiles regardless of how devices are partitioned.
func NewTileGroup(seed int64, n int) (*TileGroup, error) {
	if n < 1 {
		return nil, fmt.Errorf("simtime: tile count %d < 1", n)
	}
	g := &TileGroup{scheds: make([]*Scheduler, n)}
	for i := range g.scheds {
		// Tile streams live far from the per-device streams (which use
		// small non-negative indices) in DeriveSeed's stream space.
		g.scheds[i] = NewScheduler(DeriveSeed(seed, -1-int64(i)))
	}
	return g, nil
}

// Tiles reports the number of tiles.
func (g *TileGroup) Tiles() int { return len(g.scheds) }

// Scheduler returns tile i's scheduler.
func (g *TileGroup) Scheduler(i int) *Scheduler { return g.scheds[i] }

// Fired sums executed events across all tiles.
func (g *TileGroup) Fired() uint64 {
	var n uint64
	for _, s := range g.scheds {
		n += s.Fired()
	}
	return n
}

// tileJob asks a worker to run its tile up to boundary; final marks the
// closed last window.
type tileJob struct {
	boundary time.Duration
	final    bool
}

// tileResult carries one worker's outcome for one window.
type tileResult struct {
	tile int
	err  error
}

// Run drives every tile from time zero to horizon in windows of length
// window. Any hook may be nil. The first error — from a hook or a
// scheduler — aborts the run after the in-flight window completes on all
// workers. Worker goroutines are created at the start of the run and torn
// down (via job-channel close) before Run returns, whatever the outcome.
func (g *TileGroup) Run(horizon, window time.Duration, begin func(tile int, start time.Duration) error, end func(tile int, boundary time.Duration) error, barrier func(boundary time.Duration, final bool) error) error {
	if horizon <= 0 {
		return fmt.Errorf("simtime: horizon %v must be positive", horizon)
	}
	if window <= 0 {
		return fmt.Errorf("simtime: window %v must be positive", window)
	}

	jobs := make([]chan tileJob, len(g.scheds))
	results := make(chan tileResult, len(g.scheds))
	var wg sync.WaitGroup
	for i := range g.scheds {
		jobs[i] = make(chan tileJob, 1)
		wg.Add(1)
		go func(tile int, in <-chan tileJob) {
			defer wg.Done()
			for job := range in {
				results <- tileResult{tile: tile, err: g.runWindow(tile, job, begin, end)}
			}
		}(i, jobs[i])
	}
	defer func() {
		for _, ch := range jobs {
			close(ch)
		}
		wg.Wait()
	}()

	for start := time.Duration(0); start < horizon; {
		boundary := start + window
		final := boundary >= horizon
		if final {
			boundary = horizon
		}
		job := tileJob{boundary: boundary, final: final}
		for _, ch := range jobs {
			ch <- job
		}
		var err error
		for range jobs {
			if r := <-results; r.err != nil && err == nil {
				err = fmt.Errorf("simtime: tile %d: %w", r.tile, r.err)
			}
		}
		if err != nil {
			return err
		}
		if barrier != nil {
			if err := barrier(boundary, final); err != nil {
				return err
			}
		}
		start = boundary
	}
	return nil
}

// runWindow executes one tile's share of one window on its worker.
func (g *TileGroup) runWindow(tile int, job tileJob, begin func(tile int, start time.Duration) error, end func(tile int, boundary time.Duration) error) error {
	s := g.scheds[tile]
	if begin != nil {
		if err := begin(tile, s.Now()); err != nil {
			return err
		}
	}
	if job.final {
		if err := s.RunUntil(job.boundary); err != nil {
			return err
		}
	} else {
		for {
			at, ok := s.NextAt()
			if !ok || at >= job.boundary {
				break
			}
			if !s.Step() {
				return errors.New("queue drained mid-window")
			}
		}
		if err := s.AdvanceTo(job.boundary); err != nil {
			return err
		}
	}
	if end != nil {
		return end(tile, job.boundary)
	}
	return nil
}
