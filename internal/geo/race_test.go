//go:build race

package geo

// raceEnabled: the race runtime makes sync.Pool drop sources at random, so
// allocation pins only hold without it.
const raceEnabled = true
