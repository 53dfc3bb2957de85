//go:build race

package plan

// raceEnabled reports whether the race detector is compiled in: a budget
// over pooled storage is skipped under it.
const raceEnabled = true
