//go:build !race

package pipeline

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
