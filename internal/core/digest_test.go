package core

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"d2dhb/internal/cellular"
	"d2dhb/internal/d2d"
	"d2dhb/internal/energy"
	"d2dhb/internal/hbmsg"
	"d2dhb/internal/presence"
	"d2dhb/internal/rrc"
)

// TestWriteCanonicalGoldenBytes compares the canonical rendering of one
// small crowd run with the bytes checked in under testdata (rendered while
// DeviceReport.Energy was still a map): not just the digest but every line,
// so a representation change cannot drop or add an "energy …=" line — the
// devices here were charged against four different subsets of the phases.
func TestWriteCanonicalGoldenBytes(t *testing.T) {
	want, err := os.ReadFile("testdata/crowd_report.golden")
	if err != nil {
		t.Fatal(err)
	}
	profile := hbmsg.StandardHeartbeat()
	sim, err := CrowdScenario(Options{Seed: 1, Duration: 3*profile.Period + 10*time.Second}, profile, 2, 6, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	rep.WriteCanonical(&got)
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("rendering has %d lines, golden has %d", len(gl), len(wl))
	}
}

// TestWriteCanonicalListsZeroChargedPhase pins the visibility rule the
// digests depend on: a phase charged only zero is rendered, a phase never
// charged is not.
func TestWriteCanonicalListsZeroChargedPhase(t *testing.T) {
	led := energy.NewLedger()
	led.Add(energy.PhaseFallback, 0)
	led.Add(energy.PhaseD2DSend, 2.5)
	dev := NewDeviceReport("ue-1", d2d.RoleUE, led, rrc.Counters{}, presence.NewTracker(), time.Minute, nil, nil)
	var b bytes.Buffer
	NewReport(time.Minute, []*DeviceReport{dev}, 0, 0, 0, cellular.ChannelReport{}).WriteCanonical(&b)
	var lines []string
	for _, l := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(l, "  energy ") {
			lines = append(lines, l)
		}
	}
	if want := []string{"  energy d2d-send=2.5", "  energy fallback=0"}; strings.Join(lines, "|") != strings.Join(want, "|") {
		t.Fatalf("energy lines = %q, want %q", lines, want)
	}
}
