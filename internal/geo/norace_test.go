//go:build !race

package geo

const raceEnabled = false
