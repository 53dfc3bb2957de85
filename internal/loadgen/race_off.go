//go:build !race

package loadgen

// ladderScale stretches the soak's degradation thresholds under the race
// detector (race_on.go); without it they are as written.
const ladderScale = 1
