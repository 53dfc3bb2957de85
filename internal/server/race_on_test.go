//go:build race

package server

// raceEnabled reports whether the race detector is compiled in; timing
// bounds do not hold under its slowdown.
const raceEnabled = true
