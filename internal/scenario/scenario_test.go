package scenario

import (
	"strings"
	"testing"
	"time"
)

const sample = `{
  "seed": 3,
  "duration": "22m40s",
  "technique": "wifi-direct",
  "policy": "nagle",
  "channel": true,
  "relays": [
    {"id": "relay-1", "app": "standard", "capacity": 8,
     "mobility": {"type": "static", "x": 10, "y": 10}}
  ],
  "ues": [
    {"id": "ue-1", "app": "wechat", "extraApps": ["qq"],
     "startOffset": "20s",
     "mobility": {"type": "static", "x": 11, "y": 10}},
    {"id": "ue-2", "app": "standard", "startOffset": "35s",
     "mobility": {"type": "orbit", "x": 10, "y": 10, "radiusM": 2}},
    {"id": "ue-3", "app": "standard", "startOffset": "50s",
     "mobility": {"type": "waypoint", "x": 20, "y": 20,
                  "minSpeedMps": 0.5, "maxSpeedMps": 1.5,
                  "pause": "10s", "areaSideM": 60}}
  ]
}`

func TestLoadAndBuild(t *testing.T) {
	cfg, err := Load(strings.NewReader(sample))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if cfg.Seed != 3 || cfg.Duration.Std() != 22*time.Minute+40*time.Second {
		t.Fatalf("globals wrong: %+v", cfg)
	}
	sim, err := cfg.Build(false, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rep, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Devices) != 4 {
		t.Fatalf("devices = %d, want 4", len(rep.Devices))
	}
	ue1, ok := rep.Device("ue-1")
	if !ok || ue1.UE == nil {
		t.Fatal("ue-1 missing")
	}
	// ue-1 runs two apps and sits 1 m from the relay: it forwards.
	if ue1.UE.SentViaD2D == 0 {
		t.Fatalf("ue-1 never forwarded: %+v", ue1.UE)
	}
	// Channel tracking was enabled.
	if rep.Channel.Windows == 0 {
		t.Fatal("channel tracking not enabled")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	tests := []struct {
		name string
		json string
	}{
		{"garbage", `{`},
		{"unknown field", `{"duration":"1m","bogus":1,"ues":[{"id":"a"}]}`},
		{"no duration", `{"ues":[{"id":"a"}]}`},
		{"no devices", `{"duration":"1m"}`},
		{"empty id", `{"duration":"1m","ues":[{"id":""}]}`},
		{"duplicate id", `{"duration":"1m","ues":[{"id":"a"},{"id":"a"}]}`},
		{"bad app", `{"duration":"1m","ues":[{"id":"a","app":"snapchat"}]}`},
		{"bad extra app", `{"duration":"1m","ues":[{"id":"a","extraApps":["nope"]}]}`},
		{"bad technique", `{"duration":"1m","technique":"carrier-pigeon","ues":[{"id":"a"}]}`},
		{"bad policy", `{"duration":"1m","policy":"yolo","ues":[{"id":"a"}]}`},
		{"bad duration", `{"duration":"soon","ues":[{"id":"a"}]}`},
		{"numeric duration", `{"duration":60,"ues":[{"id":"a"}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tt.json)); err == nil {
				t.Fatalf("accepted: %s", tt.json)
			}
		})
	}
}

func TestBuildRejectsBadMobility(t *testing.T) {
	cfg, err := Load(strings.NewReader(`{
	  "duration": "5m",
	  "ues": [{"id": "a", "mobility": {"type": "waypoint", "x": 1, "y": 1,
	           "minSpeedMps": 1, "maxSpeedMps": 2, "areaSideM": 0}}]
	}`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := cfg.Build(false, nil); err == nil {
		t.Fatal("waypoint without area accepted")
	}

	cfg2, err := Load(strings.NewReader(`{
	  "duration": "5m",
	  "ues": [{"id": "a", "mobility": {"type": "teleport"}}]
	}`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := cfg2.Build(false, nil); err == nil {
		t.Fatal("unknown mobility accepted")
	}
}

func TestMobilityVariants(t *testing.T) {
	m := Mobility{Type: "line", X: 0, Y: 0, ToX: 10, ToY: 0, Speed: 1}
	mob, err := m.build(1)
	if err != nil {
		t.Fatalf("line build: %v", err)
	}
	if got := mob.Pos(5 * time.Second); got.X != 5 {
		t.Fatalf("line pos = %v, want x=5", got)
	}
	m = Mobility{} // default static at origin
	mob, err = m.build(1)
	if err != nil {
		t.Fatalf("static build: %v", err)
	}
	if got := mob.Pos(time.Hour); got.X != 0 || got.Y != 0 {
		t.Fatalf("static moved: %v", got)
	}
}
