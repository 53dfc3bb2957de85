//go:build !race

package plan

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
