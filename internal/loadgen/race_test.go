//go:build race

package loadgen

// raceEnabled: the race runtime makes sync.Pool drop buffers at random, so
// allocation pins only hold without it.
const raceEnabled = true
