package sched

import (
	"time"

	"d2dhb/internal/telemetry"
)

// Instruments carries optional telemetry handles a Window records into
// (Window.SetInstruments), the same for every Kind. All observations are
// derived from the instants callers already inject into Collect/Flush —
// never from the wall clock — so an instrumented window stays legal in
// simulation-clocked packages (the d2dvet walltime rule) and records
// virtual time under the simulator, wall time under the relay agent.
//
// A nil *Instruments (the default) makes every observation a no-op.
type Instruments struct {
	// Occupancy records the pending-buffer fill after each accepted
	// Collect — how close the window runs to its capacity M.
	Occupancy *telemetry.Histogram
	// FlushSize records the batch size handed back by each non-empty
	// Flush.
	FlushSize *telemetry.Histogram
	// FlushSlack records, in microseconds, how much deadline slack
	// remained when Flush ran: the gap between the flush instant and the
	// batch's binding deadline (0 when flushed exactly at — or past — it).
	FlushSlack *telemetry.Histogram
	// Flushes counts flushes by reason, Flushes[ReasonCapacity] those at
	// capacity: every Flush that hands out a batch or closes the window —
	// each one the relay transmits, since its own heartbeat leaves at the
	// one that closes it (a flush whose transmission then fails counts
	// here and not in the relay's FlushesBy*).
	Flushes [ReasonPolicy + 1]*telemetry.Counter
}

// observeCollect records buffer occupancy after an accepted Collect.
func (i *Instruments) observeCollect(pending int) {
	if i == nil {
		return
	}
	i.Occupancy.Record(uint64(pending))
}

// observeFlush records a flush: its reason when it handed out a batch or
// closed the window, and the batch size and deadline slack when it was not
// empty.
func (i *Instruments) observeFlush(size int, slack time.Duration, reason FlushReason, closed bool) {
	if i == nil {
		return
	}
	if size > 0 || closed {
		i.Flushes[reason].Inc()
	}
	if size == 0 {
		return
	}
	i.FlushSize.Record(uint64(size))
	if slack < 0 {
		slack = 0
	}
	i.FlushSlack.Record(uint64(slack / time.Microsecond))
}
