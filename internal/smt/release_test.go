package smt

import (
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"wetune/internal/fol"
	"wetune/internal/intern"
	"wetune/internal/obs"
	"wetune/internal/racetest"
	"wetune/internal/uexpr"
)

// scratchGoals are goals of very different sizes: a small proof, a 400-atom
// search and a refusal whose instantiation passes the atom cap.
func scratchGoals() (small, large, refused fol.Formula) {
	return overPool(6, false), literals(maxAtoms), overPool(40, true)
}

// TestReleasedSolverAnswersLikeAFreshOne solves a small goal, a much larger
// one, the small one again, a refusal and the small one once more on one
// solver, and random goals after them: each (Result, Stats) is what a solver
// that never solved before returns.
func TestReleasedSolverAnswersLikeAFreshOne(t *testing.T) {
	opts := Options{MaxNodes: 1 << 20, InstRounds: 2, MaxTermDepth: 2, Metrics: obs.NewRegistry()}
	small, large, refused := scratchGoals()
	goals := []fol.Formula{small, large, small, refused, small}
	rng := rand.New(rand.NewSource(7))
	for range 40 {
		goals = append(goals, randomSatFormula(rng))
	}
	reused := new(solver).release()
	for i, f := range goals {
		res, st := reused.run(f, opts, false)
		wantRes, wantSt := new(solver).release().run(f, opts, false)
		if res != wantRes || st != wantSt {
			t.Fatalf("goal %d: reused solver %s %+v, fresh solver %s %+v", i, res, st, wantRes, wantSt)
		}
	}
}

// TestSmallSolveDropsLargeTables: a solve that fills a table to a small part
// of the peak a larger solve left it at gets a new table instead of clearing
// the large one, and a solve of similar size keeps it.
func TestSmallSolveDropsLargeTables(t *testing.T) {
	opts := Options{MaxNodes: 1 << 20, InstRounds: 2, MaxTermDepth: 2, Metrics: obs.NewRegistry()}
	small, large, _ := scratchGoals()
	s := new(solver).release()
	s.run(large, opts, false)
	peak := s.g.atomIdx.peak
	if peak < maxAtoms {
		t.Fatalf("after the large solve the atom table's peak is %d, want at least %d", peak, maxAtoms)
	}
	s.run(large, opts, false)
	if s.g.atomIdx.peak != peak {
		t.Errorf("a solve of the same size left the atom table's peak at %d, want it kept at %d", s.g.atomIdx.peak, peak)
	}
	s.run(small, opts, false)
	for name, p := range map[string]int{
		"counted": s.counted.peak, "atomIdx": s.g.atomIdx.peak, "memo": s.g.memo.peak,
	} {
		if p >= maxAtoms {
			t.Errorf("after the small solve %s keeps the large one's peak, %d", name, p)
		}
	}
}

// TestConcurrentSolvesInOwnPools: two goroutines, each interning in a pool of
// its own, share the solvers' pool and answer what one goroutine alone does.
// Run under -race, it checks that released tables are never shared.
func TestConcurrentSolvesInOwnPools(t *testing.T) {
	small, large, refused := scratchGoals()
	goals := []fol.Formula{small, large, refused}
	rng := rand.New(rand.NewSource(8))
	for range 20 {
		goals = append(goals, randomSatFormula(rng))
	}
	type answer struct {
		res Result
		st  Stats
	}
	want := make([]answer, len(goals))
	for i, f := range goals {
		want[i].res, want[i].st = Solve(f, Options{MaxNodes: 1 << 20, InstRounds: 2, MaxTermDepth: 2, Metrics: obs.NewRegistry()})
	}
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := Options{MaxNodes: 1 << 20, InstRounds: 2, MaxTermDepth: 2, Metrics: obs.NewRegistry(), Pool: intern.NewPool()}
			for round := range 3 {
				for i := range goals {
					i := (i + w) % len(goals) // the two goroutines interleave differently
					if res, st := Solve(goals[i], opts); res != want[i].res || st != want[i].st {
						t.Errorf("goroutine %d round %d goal %d: %s %+v, want %s %+v", w, round, i, res, st, want[i].res, want[i].st)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestWarmSolveAllocBudget pins what a warm repeated solve allocates: the
// goal and its instances are interned already and the solver's tables come
// from the last solve, so a solve that only instantiates atoms allocates
// nothing. overPool's 84 are the operand lists substitution copies (fol's
// Mapper) for the pool to look up and drop: each of its instances is a
// disjunction. A table that is grown per solve again shows up here first.
func TestWarmSolveAllocBudget(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	// Collector off while counting: a collection empties the sync.Pools,
	// and their refill would count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c, tv := v(9), v(1)
	instantiated := fol.MkAnd(
		&fol.Forall{Vars: []*uexpr.TVar{tv}, Body: &fol.IntEq{
			L: &fol.RelApp{Rel: rsym(1), T: tv},
			R: &fol.RelApp{Rel: rsym(2), T: tv},
		}},
		&fol.IntGt0{T: &fol.RelApp{Rel: rsym(1), T: c}},
		&fol.IntEq{L: &fol.RelApp{Rel: rsym(2), T: c}, R: &fol.IntConst{N: 0}},
	)
	small, _, _ := scratchGoals()
	for _, tc := range []struct {
		name   string
		goal   fol.Formula
		want   Result
		allocs float64
	}{
		{"instantiated", instantiated, Unsat, 0},
		{"overPool", small, Unsat, 84},
	} {
		opts := Options{MaxNodes: 1 << 20, InstRounds: 2, MaxTermDepth: 2, Metrics: obs.NewRegistry(), Pool: intern.NewPool()}
		nf := NNF(opts.Pool, tc.goal)
		if res, _ := SolveNNF(nf, opts); res != tc.want {
			t.Fatalf("%s: %s, want %s", tc.name, res, tc.want)
		}
		if got := testing.AllocsPerRun(100, func() { SolveNNF(nf, opts) }); got != tc.allocs {
			t.Errorf("%s: %v allocations per warm solve, want %v", tc.name, got, tc.allocs)
		}
	}
}
