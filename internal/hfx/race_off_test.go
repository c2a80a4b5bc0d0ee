//go:build !race

package hfx

const raceEnabled = false
