//go:build race

package pipeline

// raceEnabled reports whether the race detector is compiled in: the
// allocation budget is skipped under it.
const raceEnabled = true
