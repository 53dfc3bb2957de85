package smt

import (
	"math/rand"
	"testing"

	"wetune/internal/fol"
	"wetune/internal/template"
	"wetune/internal/uexpr"
)

// Soundness property: formulas generated to be satisfiable by construction
// (built as conjunctions of facts true in a small random model) must never be
// pronounced Unsat.
func TestPropSatByConstructionNeverUnsat(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 80; trial++ {
		f := randomSatFormula(rng)
		res, _ := Solve(f, DefaultOptions())
		if res == Unsat {
			t.Fatalf("trial %d: satisfiable-by-construction formula declared unsat:\n%s", trial, f)
		}
	}
}

// randomSatFormula builds a model first (an assignment of booleans to
// predicate atoms over constants and equalities consistent with a random
// partition), then emits a conjunction of literals true in that model.
func randomSatFormula(rng *rand.Rand) fol.Formula {
	nConsts := 2 + rng.Intn(3)
	consts := make([]*uexpr.TVar, nConsts)
	for i := range consts {
		consts[i] = &uexpr.TVar{ID: 100 + i}
	}
	// Random partition of constants into classes.
	class := make([]int, nConsts)
	for i := range class {
		class[i] = rng.Intn(2)
	}
	var fs []fol.Formula
	// Equality literals consistent with the partition.
	for i := 0; i < nConsts; i++ {
		for j := i + 1; j < nConsts; j++ {
			eq := &fol.TupleEq{L: consts[i], R: consts[j]}
			if class[i] == class[j] {
				fs = append(fs, eq)
			} else {
				fs = append(fs, &fol.Not{F: eq})
			}
		}
	}
	// Predicate truth per class.
	p := template.Sym{Kind: template.KPred, ID: 0}
	truth := []bool{rng.Intn(2) == 0, rng.Intn(2) == 0}
	for i, c := range consts {
		app := &fol.PredApp{Pred: p, T: c}
		if truth[class[i]] {
			fs = append(fs, app)
		} else {
			fs = append(fs, &fol.Not{F: app})
		}
	}
	// Relation multiplicities per class: r(c) = 0 or > 0, consistent.
	r := template.Sym{Kind: template.KRel, ID: 0}
	pos := []bool{rng.Intn(2) == 0, rng.Intn(2) == 0}
	for i, c := range consts {
		app := &fol.RelApp{Rel: r, T: c}
		if pos[class[i]] {
			fs = append(fs, &fol.IntGt0{T: app})
		} else {
			fs = append(fs, &fol.IntEq{L: app, R: &fol.IntConst{N: 0}})
		}
	}
	// A few random disjunctions of already-true literals (still true).
	for k := 0; k < 3 && len(fs) > 1; k++ {
		a := fs[rng.Intn(len(fs))]
		b := fs[rng.Intn(len(fs))]
		fs = append(fs, fol.MkOr(a, b))
	}
	return fol.MkAnd(fs...)
}

// The state dpll keeps incrementally equals a full recomputation at every
// node (see incrementalHook), on the random formulas above and on
// conjunctions of two of them, whose partitions and predicate truths mostly
// contradict each other.
func TestPropIncrementalMatchesFull(t *testing.T) {
	checks := map[string]int{}
	incrementalHook = func(what string, incremental, full int) {
		checks[what]++
		if incremental != full {
			t.Fatalf("%s #%d: incremental %d, full recomputation %d", what, checks[what], incremental, full)
		}
	}
	defer func() { incrementalHook = nil }()
	rng := rand.New(rand.NewSource(23))
	verdicts := map[Result]int{}
	for trial := 0; trial < 200; trial++ {
		f := randomSatFormula(rng)
		if trial%2 == 1 {
			f = fol.MkAnd(f, randomSatFormula(rng))
		}
		res, _ := Solve(f, DefaultOptions())
		verdicts[res]++
	}
	t.Logf("verdicts %v, answers checked %v", verdicts, checks)
	if verdicts[Sat] == 0 || verdicts[Unsat] == 0 || checks["assertCC"] == 0 || checks["branch"] == 0 {
		t.Errorf("the formulas did not exercise both verdicts and every check: %v %v", verdicts, checks)
	}
}

// Completeness spot-check: blatant propositional contradictions are refuted.
func TestPropObviousContradictionsUnsat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		c := &uexpr.TVar{ID: 100 + rng.Intn(3)}
		p := template.Sym{Kind: template.KPred, ID: rng.Intn(2)}
		atom := &fol.PredApp{Pred: p, T: c}
		f := fol.MkAnd(atom, &fol.Not{F: atom})
		if res, _ := Solve(f, DefaultOptions()); res != Unsat {
			t.Fatalf("p & !p not unsat: %v", res)
		}
	}
}

// The solver must be deterministic: same formula, same verdict.
func TestPropDeterministicVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		f := randomSatFormula(rng)
		r1, _ := Solve(f, DefaultOptions())
		r2, _ := Solve(f, DefaultOptions())
		if r1 != r2 {
			t.Fatalf("verdicts differ: %v vs %v", r1, r2)
		}
	}
}
