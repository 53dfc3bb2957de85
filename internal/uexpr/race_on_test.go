//go:build race

package uexpr

// raceEnabled reports whether the race detector is compiled in: the
// allocation budget is skipped under it.
const raceEnabled = true
