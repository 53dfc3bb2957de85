//go:build !race

package server

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
