//go:build !race

package constraint

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
