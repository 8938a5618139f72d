package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"slices"
	"sort"
)

// Keyed is one trace event with its canonical merge key. The parallel
// city kernel records events per tile; the key is the event's exact instant
// plus the emitting device's stable population order and a per-device
// emission counter. (Ev.At, Order, Seq) is a strict total order — Seq never
// repeats within a device — so merged output is identical however events
// were sharded.
type Keyed struct {
	Order int
	Seq   uint64
	Ev    Event
}

func keyedLess(a, b Keyed) bool {
	if a.Ev.At != b.Ev.At {
		return a.Ev.At < b.Ev.At
	}
	if a.Order != b.Order {
		return a.Order < b.Order
	}
	return a.Seq < b.Seq
}

// MergeKeyed concatenates per-tile buffers and returns them in canonical
// order. The inputs are not modified.
func MergeKeyed(buffers ...[]Keyed) []Keyed {
	out := slices.Concat(buffers...)
	sort.Slice(out, func(i, j int) bool { return keyedLess(out[i], out[j]) })
	return out
}

// Digest accumulates a SHA-256 over a canonically ordered event stream,
// so a full run's trace can be fingerprinted window by window without
// retaining the events. Feed it merged events in canonical order; the sum
// is then bit-identical for a given seed regardless of tile count.
type Digest struct {
	h   hash.Hash
	n   int
	err error
}

// NewDigest returns an empty trace digest.
func NewDigest() *Digest {
	return &Digest{h: sha256.New()}
}

// Add hashes one canonical line per event: the merge key followed by the
// event's JSON encoding.
func (d *Digest) Add(events []Keyed) {
	for _, e := range events {
		raw, err := json.Marshal(e.Ev)
		if err != nil && d.err == nil {
			d.err = err
			continue
		}
		fmt.Fprintf(d.h, "%d %d %d %s\n", int64(e.Ev.At), e.Order, e.Seq, raw)
		d.n++
	}
}

// Events reports how many events were hashed.
func (d *Digest) Events() int { return d.n }

// Sum returns the hex digest of everything added so far.
func (d *Digest) Sum() (string, error) {
	if d.err != nil {
		return "", d.err
	}
	return hex.EncodeToString(d.h.Sum(nil)), nil
}
