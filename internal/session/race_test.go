//go:build race

package session

// raceEnabled: the race runtime allocates on its own, so allocation pins
// only hold without it.
const raceEnabled = true
