package rewrite_test

import (
	"context"
	"flag"
	"fmt"
	"testing"

	"wetune"
	"wetune/internal/pipeline"
	"wetune/internal/plan"
	"wetune/internal/rules"
	"wetune/internal/verify"
	"wetune/internal/workload"
)

// size3 adds the 870 rules of a size-3 discovery to the proof check. The
// discovery takes a few seconds:
//
//	go test ./internal/rewrite -run TestCorpusRewritesAreProved -size3 -v
var size3 = flag.Bool("size3", false, "also prove every corpus rewrite under the size-3 discovered rules")

// unprovable are the corpus rewrites the per-pair verifier rejects although
// the engine agrees with them, by input SQL. Both eliminate a join through a
// foreign key (ijoin-elim, ljoin-elim on emp ⋈ dept): verify.AbstractPair
// does not carry the schema's key facts into the abstracted rule, so the
// elimination's side condition is missing from what the verifier sees.
var unprovable = map[string]string{
	"SELECT emp.deptno FROM emp INNER JOIN dept ON emp.deptno = dept.deptno": "foreign-key inner join elimination",
	"SELECT emp.deptno FROM emp LEFT JOIN dept ON emp.deptno = dept.deptno":  "foreign-key left join elimination",
}

// TestCorpusRewritesAreProved runs every distinct corpus rewrite through the
// built-in verifier: the input plan against the plan of the printed output.
// It does so under the library rules and under the library plus the rules of
// a size-2 discovery, which state every equality between distinct symbols. A
// rewrite the verifier rejects is wrong SQL unless unprovable lists it.
func TestCorpusRewritesAreProved(t *testing.T) {
	library := rules.All()
	t.Run("library", func(t *testing.T) { checkRewritesProved(t, library) })
	t.Run("size2", func(t *testing.T) { checkRewritesProved(t, append(library, discovered(t, 2)...)) })
	if *size3 {
		t.Run("size3", func(t *testing.T) { checkRewritesProved(t, append(library, discovered(t, 3)...)) })
	}
}

// discoveries holds each size's discovered rules, which two tests read.
var discoveries = map[int][]rules.Rule{}

// discovered runs one discovery over templates of up to size operators with
// the algebraic prover and a fresh proof cache, numbered as wetune.Discover
// numbers its rules, once per size and test binary.
func discovered(t *testing.T, size int) []rules.Rule {
	t.Helper()
	if rs, ok := discoveries[size]; ok {
		return rs
	}
	res := pipeline.Run(context.Background(), pipeline.Options{
		MaxTemplateSize: size,
		PairProver:      pipeline.AlgebraicPairProver,
		Cache:           pipeline.NewProofCache(),
	})
	base := 1000
	for _, r := range rules.All() {
		base = max(base, r.No+1)
	}
	out := make([]rules.Rule, len(res.Rules))
	for i, r := range res.Rules {
		out[i] = rules.Rule{No: base + i, Name: fmt.Sprintf("discovered-%d", i),
			Src: r.Src, Dest: r.Dest, Constraints: r.Constraints, Verifier: "W"}
	}
	t.Logf("size %d: %d discovered rules", size, len(out))
	discoveries[size] = out
	return out
}

func checkRewritesProved(t *testing.T, rs []rules.Rule) {
	schemas, items := workload.RewriteCorpus(100)
	opts := map[string]*wetune.Optimizer{}
	for app, schema := range schemas {
		opts[app] = wetune.NewOptimizer(rs, schema)
	}
	seen := map[[3]string]bool{}
	rewritten, proved, rejected := 0, 0, 0
	for _, it := range items {
		res, err := opts[it.App].OptimizeSQLResult(it.SQL)
		if err != nil || len(res.Applied) == 0 {
			continue
		}
		rewritten++
		key := [3]string{it.App, it.SQL, res.Output}
		if seen[key] {
			continue
		}
		seen[key] = true
		schema := schemas[it.App]
		in, err := plan.BuildSQL(it.SQL, schema)
		if err != nil {
			t.Fatalf("%q: %v", it.SQL, err)
		}
		out, err := plan.BuildSQL(res.Output, schema)
		if err != nil {
			t.Errorf("%q rewritten to %q, which does not plan: %v", it.SQL, res.Output, err)
			continue
		}
		if rep := verify.VerifyPlanPair(in, out, schema); rep.Outcome == verify.Verified {
			proved++
			continue
		}
		rejected++
		if why, ok := unprovable[it.SQL]; ok {
			t.Logf("%q rewritten to %q: not proved, listed (%s)", it.SQL, res.Output, why)
		} else {
			t.Errorf("%q rewritten to %q by %v: not proved", it.SQL, res.Output, res.Applied)
		}
	}
	t.Logf("%d rules: %d queries rewritten, %d distinct rewrites, %d proved, %d rejected",
		len(rs), rewritten, len(seen), proved, rejected)
}
