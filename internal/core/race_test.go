//go:build race

package core

// raceEnabled: allocation ceilings only hold without the race runtime.
const raceEnabled = true
