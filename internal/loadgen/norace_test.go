//go:build !race

package loadgen

const raceEnabled = false
