// Package faultnet injects deterministic, scriptable network faults into
// the real heartbeat stack: any net.Conn, net.Listener or dial function can
// be wrapped so that writes suffer added latency/jitter, bandwidth
// throttling, byte corruption or mid-write connection resets, accepts are
// blackholed, and dials/writes vanish entirely during timed partitions.
//
// Faults are driven by a Schedule: an ordered set of time windows on a
// single timeline, either scripted explicitly or scattered by Generate from
// a seed. The same seed and config always produce the same window timeline,
// so every chaos run is reproducible. Per-write probabilistic decisions
// (which byte to corrupt, whether to reset) come from per-connection RNGs
// derived from the schedule seed; they are deterministic per connection for
// a fixed write sequence, though goroutine interleaving still decides which
// connection writes first.
//
// The layer exists to prove the paper's Section IV-C claim under failure:
// the feedback/cellular-fallback mechanism must lose zero heartbeats when a
// relay dies, a server partitions, or frames corrupt in flight.
package faultnet

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"d2dhb/internal/trace"
)

// Kind labels one fault flavour.
type Kind string

// Fault kinds.
const (
	// KindLatency delays every write by Latency ± Jitter.
	KindLatency Kind = "latency"
	// KindThrottle caps write bandwidth at Rate bytes/s, trickling large
	// writes out in small paced chunks (slow-loris).
	KindThrottle Kind = "throttle"
	// KindCorrupt flips one random bit per write with probability Prob.
	KindCorrupt Kind = "corrupt"
	// KindReset closes the connection mid-write with probability Prob.
	KindReset Kind = "reset"
	// KindBlackhole accepts inbound connections and immediately closes
	// them.
	KindBlackhole Kind = "blackhole"
	// KindPartition silently swallows writes and refuses dials: the
	// sender only learns through missing acknowledgements, exactly the
	// signal the paper's feedback fallback reacts to.
	KindPartition Kind = "partition"
)

// Fault parameterizes one injected failure mode.
type Fault struct {
	Kind    Kind
	Latency time.Duration // KindLatency: base added delay per write
	Jitter  time.Duration // KindLatency: ± jitter around Latency
	Rate    float64       // KindThrottle: bytes per second, below 1 too
	Prob    float64       // KindCorrupt / KindReset: per-write probability
}

// Window activates one fault during [From, To) on the schedule timeline.
// To == 0 leaves the window open forever.
type Window struct {
	From, To time.Duration
	Fault    Fault
}

// contains reports whether the window is active at instant t.
func (w Window) contains(t time.Duration) bool {
	return t >= w.From && (w.To == 0 || t < w.To)
}

// Stats counts injected faults.
type Stats struct {
	Delayed      int // writes delayed by a latency window
	Throttled    int // writes trickled by a throttle window
	Corrupted    int // writes with a flipped bit
	Resets       int // injected mid-write connection resets
	DroppedSends int // writes swallowed by a partition
	Blackholed   int // accepts closed by a blackhole
	RefusedDials int // dials refused by a partition
}

// Schedule is one fault timeline shared by any number of wrapped
// connections, listeners and dialers. The clock starts at the first fault
// lookup (or an explicit Start call); windows are relative to that instant.
type Schedule struct {
	seed int64

	mu      sync.Mutex
	windows []Window
	opened  []bool
	tracer  trace.Tracer
	start   time.Time
	stats   Stats
	conns   int64
}

// NewSchedule builds a schedule over an explicit window script. The seed
// drives per-connection probabilistic decisions (corrupt/reset draws).
func NewSchedule(seed int64, windows []Window) *Schedule {
	ws := make([]Window, len(windows))
	copy(ws, windows)
	return &Schedule{seed: seed, windows: ws, opened: make([]bool, len(ws))}
}

// SetTracer attaches an event tracer; fault injections and window openings
// emit trace events. Call before wrapping connections.
func (s *Schedule) SetTracer(tr trace.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = tr
}

// Start pins t=0 of the fault timeline to now. Without an explicit call the
// first fault lookup starts the clock.
func (s *Schedule) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.start.IsZero() {
		s.start = time.Now()
	}
}

// Seed returns the seed driving the schedule's probabilistic draws.
func (s *Schedule) Seed() int64 { return s.seed }

// Windows returns a copy of the schedule's window script.
func (s *Schedule) Windows() []Window {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Window, len(s.windows))
	copy(out, s.windows)
	return out
}

// Stats returns a snapshot of the injection counters.
func (s *Schedule) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Active returns the first window of kind k active right now.
func (s *Schedule) Active(k Kind) (Fault, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.start.IsZero() {
		s.start = time.Now()
	}
	now := time.Since(s.start)
	for i, w := range s.windows {
		if w.Fault.Kind != k || !w.contains(now) {
			continue
		}
		if !s.opened[i] {
			s.opened[i] = true
			trace.Emit(s.tracer, trace.Event{
				At: trace.Unix(time.Now()), Device: "faultnet",
				Kind: trace.KindFaultWindow, Reason: string(k), N: i + 1,
			})
		}
		return w.Fault, true
	}
	return Fault{}, false
}

// note counts one injected fault and emits its trace event.
func (s *Schedule) note(bump func(*Stats), device string, k Kind) {
	s.mu.Lock()
	bump(&s.stats)
	tr := s.tracer
	s.mu.Unlock()
	trace.Emit(tr, trace.Event{
		At: trace.Unix(time.Now()), Device: device,
		Kind: trace.KindFault, Reason: string(k),
	})
}

// GenConfig shapes Generate's random fault timeline.
type GenConfig struct {
	// Horizon is the timeline length windows are scattered over. Zero
	// selects 10 s.
	Horizon time.Duration
	// Count is how many windows to scatter. Zero selects 4.
	Count int
	// Kinds are the fault kinds drawn uniformly. Empty selects latency,
	// corrupt, reset and partition.
	Kinds []Kind
	// MinDur / MaxDur bound window lengths. Zero selects Horizon/20 and
	// Horizon/5.
	MinDur, MaxDur time.Duration
}

// Generate derives a reproducible fault timeline: the same seed and config
// always yield the same windows (sorted by opening time).
func Generate(seed int64, cfg GenConfig) []Window {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 10 * time.Second
	}
	if cfg.Count <= 0 {
		cfg.Count = 4
	}
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = []Kind{KindLatency, KindCorrupt, KindReset, KindPartition}
	}
	if cfg.MinDur <= 0 {
		cfg.MinDur = cfg.Horizon / 20
	}
	if cfg.MaxDur <= cfg.MinDur {
		cfg.MaxDur = cfg.MinDur + cfg.Horizon/5
	}
	rng := rand.New(rand.NewSource(seed))
	windows := make([]Window, 0, cfg.Count)
	for i := 0; i < cfg.Count; i++ {
		k := cfg.Kinds[rng.Intn(len(cfg.Kinds))]
		dur := cfg.MinDur + time.Duration(rng.Int63n(int64(cfg.MaxDur-cfg.MinDur)+1))
		from := time.Duration(rng.Int63n(int64(cfg.Horizon)))
		f := Fault{Kind: k}
		switch k {
		case KindLatency:
			f.Latency = time.Duration(5+rng.Intn(30)) * time.Millisecond
			f.Jitter = f.Latency / 2
		case KindThrottle:
			f.Rate = float64(int(256) << rng.Intn(5))
		case KindCorrupt:
			f.Prob = 0.05 + 0.25*rng.Float64()
		case KindReset:
			f.Prob = 0.02 + 0.13*rng.Float64()
		}
		windows = append(windows, Window{From: from, To: from + dur, Fault: f})
	}
	slices.SortFunc(windows, func(a, b Window) int {
		if a.From != b.From {
			return cmp.Compare(a.From, b.From)
		}
		return cmp.Compare(a.Fault.Kind, b.Fault.Kind)
	})
	return windows
}

// ParseSpec builds a schedule from a compact CLI spec: comma-separated
// key=value pairs.
//
//	seed=42             RNG seed for probabilistic draws (default 1)
//	latency=20ms        always-on added write latency
//	jitter=10ms         ± jitter around latency
//	throttle=4096       always-on write bandwidth cap (bytes/s)
//	corrupt=0.01        per-write bit-corruption probability
//	reset=0.005         per-write connection-reset probability
//	partition=2s+1s     partition opening at 2s, lasting 1s (repeatable)
//	blackhole=1s+500ms  accept-blackhole window (repeatable)
//	chaos=4             additionally scatter this many seeded random windows
//	horizon=10s         timeline length for chaos windows
//
// An empty spec returns nil (no fault injection).
func ParseSpec(spec string) (*Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var (
		seed            int64 = 1
		latency, jitter time.Duration
		throttle        float64
		corrupt, reset  float64
		windows         []Window
		chaosCount      int
		horizon         time.Duration
	)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("faultnet: bad spec element %q (want key=value)", part)
		}
		var err error
		switch key {
		case "seed":
			seed, err = strconv.ParseInt(val, 10, 64)
		case "latency":
			latency, err = time.ParseDuration(val)
		case "jitter":
			jitter, err = time.ParseDuration(val)
		case "throttle":
			throttle, err = strconv.ParseFloat(val, 64)
		case "corrupt":
			corrupt, err = strconv.ParseFloat(val, 64)
		case "reset":
			reset, err = strconv.ParseFloat(val, 64)
		case "partition", "blackhole":
			var w Window
			w, err = parseWindow(key, val)
			windows = append(windows, w)
		case "chaos":
			chaosCount, err = strconv.Atoi(val)
		case "horizon":
			horizon, err = time.ParseDuration(val)
		default:
			return nil, fmt.Errorf("faultnet: unknown spec key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("faultnet: bad %s value %q: %v", key, val, err)
		}
	}
	if latency > 0 || jitter > 0 {
		windows = append(windows, Window{Fault: Fault{Kind: KindLatency, Latency: latency, Jitter: jitter}})
	}
	if throttle > 0 {
		windows = append(windows, Window{Fault: Fault{Kind: KindThrottle, Rate: throttle}})
	}
	if corrupt > 0 {
		windows = append(windows, Window{Fault: Fault{Kind: KindCorrupt, Prob: corrupt}})
	}
	if reset > 0 {
		windows = append(windows, Window{Fault: Fault{Kind: KindReset, Prob: reset}})
	}
	if chaosCount > 0 {
		windows = append(windows, Generate(seed, GenConfig{Horizon: horizon, Count: chaosCount})...)
	}
	if len(windows) == 0 {
		return nil, fmt.Errorf("faultnet: spec %q defines no faults", spec)
	}
	return NewSchedule(seed, windows), nil
}

// parseWindow decodes "FROM+DUR" into a window of the given kind.
func parseWindow(kind, val string) (Window, error) {
	fromStr, durStr, ok := strings.Cut(val, "+")
	if !ok {
		return Window{}, fmt.Errorf("want FROM+DUR, e.g. 2s+1s")
	}
	from, err := time.ParseDuration(fromStr)
	if err != nil {
		return Window{}, err
	}
	dur, err := time.ParseDuration(durStr)
	if err != nil {
		return Window{}, err
	}
	if dur <= 0 {
		return Window{}, fmt.Errorf("non-positive duration %v", dur)
	}
	return Window{From: from, To: from + dur, Fault: Fault{Kind: Kind(kind)}}, nil
}
