package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"d2dhb/internal/cellular"
	"d2dhb/internal/d2d"
	"d2dhb/internal/device"
	"d2dhb/internal/energy"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/rrc"
)

// TestCanonicalStructsMatchFmt holds WriteCanonical's field-by-field
// appenders to fmt's %+v rendering, which the pinned digests were taken
// over, on randomised values of every field. A field added to one of these
// structs is filled here too, so it fails this test until the appender
// renders it rather than silently leaving the digest.
func TestCanonicalStructsMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		var (
			ch    cellular.ChannelReport
			rc    rrc.Counters
			relay device.RelayStats
			ue    device.UEStats
		)
		for _, v := range []any{&ch, &rc, &relay, &ue} {
			fill(t, rng, reflect.ValueOf(v).Elem())
		}
		for _, c := range []struct {
			name string
			got  []byte
			want any
		}{
			{"channel", appendChannel(nil, ch), ch},
			{"rrc", appendRRC(nil, rc), rc},
			{"relay", appendRelayStats(nil, &relay), relay},
			{"ue", appendUEStats(nil, &ue), ue},
		} {
			if want := fmt.Sprintf("%+v", c.want); string(c.got) != want {
				t.Fatalf("%s renders\n %s\nfmt %%+v renders\n %s", c.name, c.got, want)
			}
		}
	}
}

// fill sets every field of the struct v to a random value: integers across
// all magnitudes and both signs, so a time.Duration field meets every unit
// its String method picks.
func fill(t *testing.T, rng *rand.Rand, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			n := rng.Int63n(int64(math.Pow10(rng.Intn(19))))
			if rng.Intn(4) == 0 {
				n = -n
			}
			f.SetInt(n)
		default:
			t.Fatalf("%s.%s is a %s: render it in WriteCanonical and fill it here",
				v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestAppendDurationEdges pins the unit boundaries of appendDuration
// against time.Duration.String.
func TestAppendDurationEdges(t *testing.T) {
	for _, d := range []time.Duration{
		0, 1, 999, time.Microsecond, 1500, time.Millisecond - 1, time.Millisecond,
		1500 * time.Microsecond, time.Second - 1, time.Second, time.Minute - 1, time.Minute,
		time.Hour - 1, time.Hour, time.Hour + 500*time.Millisecond, 100*time.Hour + time.Nanosecond,
		-1, -time.Second, math.MaxInt64, math.MinInt64,
	} {
		if got := appendDuration(nil, d); string(got) != d.String() {
			t.Errorf("appendDuration(%d) = %q, want %q", int64(d), got, d.String())
		}
	}
}

// TestDigestAllocs pins what one digest of a 10k-device report allocates:
// the rendering reuses one buffer, so the cost does not grow with the
// devices (≈ 9.8 KB in 5 mallocs: the buffer, the hash and its hex). fmt
// rendered each line through an interface, which made a digest of this
// report cost ≈ 5.3 MB in ≈ 205 k mallocs.
func TestDigestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the renderer's")
	}
	const (
		bytesCeiling   = 16 << 10
		mallocsCeiling = 8
	)
	rep := syntheticReport(10_000, rand.New(rand.NewSource(1)))
	var sink bytes.Buffer
	rep.WriteCanonical(&sink) // the rendering must cover every kind of line
	if sink.Len() < 10_000*100 {
		t.Fatalf("rendering is %d bytes for 10 000 devices", sink.Len())
	}
	allocs := testing.AllocsPerRun(3, func() { _ = rep.Digest() })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = rep.Digest()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("one digest of %d devices: %d B in %.0f mallocs", len(rep.Devices), bytes, allocs)
	if bytes > bytesCeiling {
		t.Errorf("one digest allocates %d bytes, ceiling %d", bytes, bytesCeiling)
	}
	if allocs > mallocsCeiling {
		t.Errorf("one digest makes %.0f mallocs, ceiling %d", allocs, mallocsCeiling)
	}
}

// syntheticReport builds a report of n devices, one in ten a relay, every
// field random and every device charged against a random subset of the
// energy phases.
func syntheticReport(n int, rng *rand.Rand) *Report {
	devs := make([]*DeviceReport, n)
	for i := range devs {
		d := &DeviceReport{
			ID:            hbmsg.DeviceID(fmt.Sprintf("ue-%05d", i)),
			Role:          d2d.RoleUE,
			Total:         energy.MicroAmpHours(rng.Float64() * 1e4),
			Availability:  rng.Float64(),
			PresenceFlaps: rng.Intn(5),
			RRC: rrc.Counters{
				L3Messages: rng.Intn(100), Promotions: rng.Intn(10), Releases: rng.Intn(10),
				Transmissions: rng.Intn(20), PayloadBytes: rng.Intn(5000),
				ConnectedTime: time.Duration(rng.Int63n(int64(time.Hour))),
			},
		}
		for _, p := range energy.Phases() {
			if rng.Intn(2) == 0 {
				d.Charged |= 1 << p
				d.Energy[p] = energy.MicroAmpHours(rng.Float64() * 1e3)
			}
		}
		if i%10 == 0 {
			d.Role = d2d.RoleRelay
			d.Relay = &device.RelayStats{OwnHeartbeats: rng.Intn(10), Collected: rng.Intn(100), Flushes: rng.Intn(10)}
		} else {
			d.UE = &device.UEStats{Generated: rng.Intn(10), SentViaD2D: rng.Intn(10), Scans: rng.Intn(10)}
		}
		devs[i] = d
	}
	return NewReport(20*time.Minute, devs, rng.Intn(1e6), rng.Intn(1e5), rng.Intn(100), cellular.ChannelReport{Windows: 3})
}
