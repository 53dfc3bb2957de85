//go:build !race

// Package racetest tells tests whether the race detector is compiled in:
// under it allocation budgets and timing bounds do not hold.
package racetest

// Enabled reports whether the race detector is compiled in.
const Enabled = false
