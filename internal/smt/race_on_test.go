//go:build race

package smt

// raceEnabled reports whether the race detector is compiled in: the
// allocation budget is skipped under it.
const raceEnabled = true
