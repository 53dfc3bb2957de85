//go:build !race

package smt

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
