//go:build race

package dsm

const raceEnabled = true
