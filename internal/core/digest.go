package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"

	"d2dhb/internal/energy"
)

// WriteCanonical writes a canonical, field-by-field text rendering of the
// report. Every observable quantity of a run appears exactly once, floats
// are rendered with round-trip precision and energy phases — those the
// device was ever charged against, a zero charge included — are listed in
// phase order, so two reports serialize identically iff every field
// matches bit-for-bit.
// It underpins Digest and exists separately so a digest mismatch can be
// diagnosed by diffing the two renderings.
func (r *Report) WriteCanonical(w io.Writer) {
	ff := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	fmt.Fprintf(w, "duration=%d\n", int64(r.Duration))
	fmt.Fprintf(w, "l3=%d deliveries=%d late=%d\n", r.TotalL3Messages, r.Deliveries, r.LateDeliveries)
	fmt.Fprintf(w, "channel=%+v\n", r.Channel)
	for _, d := range r.Devices {
		fmt.Fprintf(w, "device=%s role=%d total=%s avail=%s flaps=%d\n",
			d.ID, int(d.Role), ff(float64(d.Total)), ff(d.Availability), d.PresenceFlaps)
		for _, p := range energy.Phases() {
			if d.Charged.Has(p) {
				fmt.Fprintf(w, "  energy %s=%s\n", p, ff(float64(d.Energy[p])))
			}
		}
		fmt.Fprintf(w, "  rrc=%+v\n", d.RRC)
		if d.Relay != nil {
			fmt.Fprintf(w, "  relay=%+v\n", *d.Relay)
		}
		if d.UE != nil {
			fmt.Fprintf(w, "  ue=%+v\n", *d.UE)
		}
	}
}

// Digest returns a hex SHA-256 over the canonical rendering of the report:
// a single value that changes iff any observable output of the run changed.
// The determinism regression suite pins digests of mixed scenarios to
// goldens so that kernel and discovery optimizations can prove they left
// every seeded result bit-identical.
func (r *Report) Digest() string {
	h := sha256.New()
	r.WriteCanonical(h)
	return hex.EncodeToString(h.Sum(nil))
}
