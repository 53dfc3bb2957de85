//go:build race

package loadgen

// ladderScale stretches the soak's degradation thresholds (RunSoak) under
// the race detector. Its slowdown lifts ordinary rewrite latency into the
// 5 ms "hot" band, so unscaled thresholds step the ladder down, and keep it
// down, with no fault armed; scaled, they still sit below the 15 ms
// CacheSlow stall that must step it.
const ladderScale = 2
