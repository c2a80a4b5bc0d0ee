//go:build race

package hfx

// raceEnabled reports that the race detector instruments this build; it
// slows memory-bound loops far more than arithmetic, so tests that compare
// measured time shapes skip under it.
const raceEnabled = true
