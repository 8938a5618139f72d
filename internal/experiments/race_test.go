//go:build race

package experiments

// raceEnabled: heap-footprint ceilings only hold without the race runtime.
const raceEnabled = true
