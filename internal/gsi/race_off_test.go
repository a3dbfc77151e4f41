//go:build !race

package gsi

const raceEnabled = false
