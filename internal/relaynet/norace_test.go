//go:build !race

package relaynet

const raceEnabled = false
