//go:build race

package rewrite

// raceEnabled reports whether the race detector is compiled in; it allocates
// on its own, so allocation budgets do not hold under it.
const raceEnabled = true
