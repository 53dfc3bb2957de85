//go:build !race

package rewrite

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
