package verify

import (
	"runtime/debug"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/racetest"
)

// TestPairContextVerifyAllocBudget pins the allocations of a warm
// PairContext.VerifyOpts — the call the relaxation search makes for every
// candidate set of a pair once the set's closure is prepared. The call formats
// no trace note and builds no counter name, so per-call formatting cannot
// creep back in unnoticed.
func TestPairContextVerifyAllocBudget(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	// Collector off while counting: a collection empties the sync.Pools,
	// and their refill would count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	src, dest, cs := figure2Rule()
	// The Figure 2 set without AttrsEq(a0, a1): the two IN columns differ,
	// so the algebraic forms differ and SkipSMT rejects.
	var weaker []constraint.C
	for _, c := range cs.Items() {
		if c.Kind != constraint.AttrsEq {
			weaker = append(weaker, c)
		}
	}
	for _, tc := range []struct {
		name   string
		cs     *constraint.Set
		opts   Options
		want   Outcome
		allocs float64
	}{
		{"proved", cs, DefaultOptions(), Verified, 14},
		{"rejected", constraint.NewSet(weaker...), Options{SkipSMT: true}, Rejected, 11},
	} {
		pc := NewPairContext(src, dest)
		if rep := pc.VerifyOpts(tc.cs, tc.opts); rep.Outcome != tc.want {
			t.Fatalf("%s: %v (%s), want %v", tc.name, rep.Outcome, rep.Detail, tc.want)
		}
		if got := testing.AllocsPerRun(100, func() { pc.VerifyOpts(tc.cs, tc.opts) }); got != tc.allocs {
			t.Errorf("%s: %v allocations per warm call, want %v", tc.name, got, tc.allocs)
		}
	}
}
