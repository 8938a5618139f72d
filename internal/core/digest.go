package core

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strconv"
	"time"

	"d2dhb/internal/cellular"
	"d2dhb/internal/device"
	"d2dhb/internal/energy"
	"d2dhb/internal/rrc"
)

// canonicalChunk is how much rendered text WriteCanonical gathers before it
// hands it to the writer: the buffer is reused across devices, so a whole
// report costs one allocation however many devices it has.
const canonicalChunk = 8 << 10

// WriteCanonical writes a canonical, field-by-field text rendering of the
// report. Every observable quantity of a run appears exactly once, floats
// are rendered with round-trip precision and energy phases — those the
// device was ever charged against, a zero charge included — are listed in
// phase order, so two reports serialize identically iff every field
// matches bit-for-bit.
// It underpins Digest and exists separately so a digest mismatch can be
// diagnosed by diffing the two renderings.
//
// The counter structs are rendered as fmt's %+v renders them, which is what
// the pinned digests were taken over; TestCanonicalStructsMatchFmt holds
// the appenders below to that, field by field.
func (r *Report) WriteCanonical(w io.Writer) {
	phases := energy.Phases()
	b := make([]byte, 0, canonicalChunk+1024)
	b = strconv.AppendInt(append(b, "duration="...), int64(r.Duration), 10)
	b = appendInt(append(b, "\nl3="...), r.TotalL3Messages)
	b = appendInt(append(b, " deliveries="...), r.Deliveries)
	b = appendInt(append(b, " late="...), r.LateDeliveries)
	b = append(appendChannel(append(b, "\nchannel="...), r.Channel), '\n')
	for _, d := range r.Devices {
		if len(b) >= canonicalChunk {
			w.Write(b)
			b = b[:0]
		}
		b = append(append(b, "device="...), d.ID...)
		b = appendInt(append(b, " role="...), int(d.Role))
		b = appendFloat(append(b, " total="...), float64(d.Total))
		b = appendFloat(append(b, " avail="...), d.Availability)
		b = append(appendInt(append(b, " flaps="...), d.PresenceFlaps), '\n')
		for _, p := range phases {
			if d.Charged.Has(p) {
				b = append(append(append(b, "  energy "...), p.String()...), '=')
				b = append(appendFloat(b, float64(d.Energy[p])), '\n')
			}
		}
		b = append(appendRRC(append(b, "  rrc="...), d.RRC), '\n')
		if d.Relay != nil {
			b = append(appendRelayStats(append(b, "  relay="...), d.Relay), '\n')
		}
		if d.UE != nil {
			b = append(appendUEStats(append(b, "  ue="...), d.UE), '\n')
		}
	}
	w.Write(b)
}

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

func appendFloat(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

// appendField appends one " Name:value" of a %+v rendering; label carries
// the separator ("{" for the first field, " " for the rest).
func appendField(b []byte, label string, v int) []byte { return appendInt(append(b, label...), v) }

func appendChannel(b []byte, c cellular.ChannelReport) []byte {
	b = appendField(b, "{Windows:", c.Windows)
	b = appendField(b, " TotalMessages:", c.TotalMessages)
	b = appendField(b, " PeakWindowLoad:", c.PeakWindowLoad)
	b = appendField(b, " OverloadedWindows:", c.OverloadedWindows)
	b = appendField(b, " DroppedMessages:", c.DroppedMessages)
	return append(b, '}')
}

func appendRRC(b []byte, c rrc.Counters) []byte {
	b = appendField(b, "{L3Messages:", c.L3Messages)
	b = appendField(b, " Promotions:", c.Promotions)
	b = appendField(b, " Releases:", c.Releases)
	b = appendField(b, " Transmissions:", c.Transmissions)
	b = appendField(b, " PayloadBytes:", c.PayloadBytes)
	b = appendDuration(append(b, " ConnectedTime:"...), c.ConnectedTime)
	return append(b, '}')
}

func appendRelayStats(b []byte, s *device.RelayStats) []byte {
	b = appendField(b, "{OwnHeartbeats:", s.OwnHeartbeats)
	b = appendField(b, " Collected:", s.Collected)
	b = appendField(b, " RejectedClosed:", s.RejectedClosed)
	b = appendField(b, " RejectedExpired:", s.RejectedExpired)
	b = appendField(b, " Flushes:", s.Flushes)
	b = appendField(b, " FlushesByCapacity:", s.FlushesByCapacity)
	b = appendField(b, " FlushesByDeadline:", s.FlushesByDeadline)
	b = appendField(b, " FlushesByPeriodEnd:", s.FlushesByPeriodEnd)
	b = appendField(b, " ForwardedSent:", s.ForwardedSent)
	b = appendField(b, " AcksSent:", s.AcksSent)
	b = appendField(b, " AckFailures:", s.AckFailures)
	b = appendField(b, " Credits:", s.Credits)
	b = appendField(b, " SendErrors:", s.SendErrors)
	return append(b, '}')
}

func appendUEStats(b []byte, s *device.UEStats) []byte {
	b = appendField(b, "{Generated:", s.Generated)
	b = appendField(b, " SentViaD2D:", s.SentViaD2D)
	b = appendField(b, " D2DSendFailures:", s.D2DSendFailures)
	b = appendField(b, " DirectCellular:", s.DirectCellular)
	b = appendField(b, " RelayBusy:", s.RelayBusy)
	b = appendField(b, " FallbackResends:", s.FallbackResends)
	b = appendField(b, " AcksReceived:", s.AcksReceived)
	b = appendField(b, " Scans:", s.Scans)
	b = appendField(b, " ScansSkipped:", s.ScansSkipped)
	b = appendField(b, " Matches:", s.Matches)
	b = appendField(b, " MatchFailures:", s.MatchFailures)
	b = appendField(b, " SendErrors:", s.SendErrors)
	return append(b, '}')
}

// appendDuration appends d as time.Duration.String formats it, without
// the string that method allocates: "1h2m3.5s" from a second up (hours and
// minutes only once non-zero), below a second in the largest unit that
// keeps an integer part ("1.5ms", "2µs", "7ns"), and zero as "0s".
func appendDuration(b []byte, d time.Duration) []byte {
	if d == 0 {
		return append(b, "0s"...)
	}
	u := uint64(d)
	if d < 0 {
		b = append(b, '-')
		u = -u
	}
	switch {
	case u < uint64(time.Microsecond):
		return append(strconv.AppendUint(b, u, 10), "ns"...)
	case u < uint64(time.Millisecond):
		return append(appendFrac(b, u, 3), "µs"...)
	case u < uint64(time.Second):
		return append(appendFrac(b, u, 6), "ms"...)
	}
	secs, nanos := u/uint64(time.Second), u%uint64(time.Second)
	if h := secs / 3600; h > 0 {
		b = append(strconv.AppendUint(b, h, 10), 'h')
		b = append(strconv.AppendUint(b, secs/60%60, 10), 'm')
	} else if m := secs / 60; m > 0 {
		b = append(strconv.AppendUint(b, m, 10), 'm')
	}
	return append(appendFrac(b, secs%60*uint64(time.Second)+nanos, 9), 's')
}

// appendFrac appends v / 10^prec in decimal, the fraction without its
// trailing zeros and without a point when it is zero.
func appendFrac(b []byte, v uint64, prec int) []byte {
	var pow uint64 = 1
	for range prec {
		pow *= 10
	}
	b = strconv.AppendUint(b, v/pow, 10)
	frac := v % pow
	if frac == 0 {
		return b
	}
	var digits [9]byte
	for i := prec - 1; i >= 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	n := prec
	for digits[n-1] == '0' {
		n--
	}
	return append(append(b, '.'), digits[:n]...)
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
