//go:build !race

package wetune

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
