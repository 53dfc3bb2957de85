//go:build !race

package uexpr

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
