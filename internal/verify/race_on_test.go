//go:build race

package verify

// raceEnabled reports whether the race detector is compiled in. Under its
// slowdown the size-2 proof replay lifts the SMT wall-clock deadline instead
// of asserting that no call hits it.
const raceEnabled = true
