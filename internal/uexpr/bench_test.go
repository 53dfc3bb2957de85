package uexpr

import (
	"runtime/debug"
	"testing"

	"wetune/internal/racetest"
	"wetune/internal/template"
)

// size2Exprs translates every translatable size-≤2 template — the population
// the normalizer runs on (twice per constraint set) inside the discovery
// pipeline.
func size2Exprs(tb testing.TB) []Expr {
	tb.Helper()
	var exprs []Expr
	for _, t := range template.Enumerate(template.EnumOptions{MaxSize: 2}) {
		if e, _, err := Translate(t); err == nil {
			exprs = append(exprs, e)
		}
	}
	if len(exprs) == 0 {
		tb.Fatal("no translatable templates")
	}
	return exprs
}

func normalizeAll(exprs []Expr, env *Env) {
	for _, e := range exprs {
		Normalize(e, env)
	}
}

// BenchmarkNormalize measures normalization of every translatable size-≤2
// template, so its time tracks the hot cross-product/rename-apart path
// directly.
func BenchmarkNormalize(b *testing.B) {
	exprs := size2Exprs(b)
	env := &Env{}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		normalizeAll(exprs, env)
	}
}

// TestNormalizeAllocBudget pins what BenchmarkNormalize's op allocates:
// normalizing every translatable size-≤2 template once. The count is exact;
// a normalizer change that moves it re-pins it here with its reason.
func TestNormalizeAllocBudget(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	// Collector off while counting: a collection empties the sync.Pools,
	// and their refill would count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	exprs, env := size2Exprs(t), &Env{}
	if got := testing.AllocsPerRun(20, func() { normalizeAll(exprs, env) }); got != 15672 {
		t.Errorf("Normalize of every size-2 template: %v allocations, want 15672", got)
	}
}
