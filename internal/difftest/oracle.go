package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"wetune/internal/datagen"
	"wetune/internal/engine"
	"wetune/internal/plan"
	"wetune/internal/rewrite"
	"wetune/internal/rules"
	"wetune/internal/sql"
)

// Options configures a fuzzing run.
type Options struct {
	// Seed drives every random choice; the same seed replays the same run.
	Seed int64
	// N is the number of iterations (schema+data+query draws). Each iteration
	// checks every applicable rewrite candidate.
	N int
	// Rules to exercise. Defaults to rules.All().
	Rules []rules.Rule
	// RowsPerTable is the data volume per generated table (default 30).
	RowsPerTable int
	// Budget bounds the wall-clock of the whole run; zero means no bound.
	Budget time.Duration
	// StopOnMismatch stops the run at the first mismatch (the CLI default);
	// otherwise the run continues and collects every mismatch.
	StopOnMismatch bool
	// Progress, when non-nil, receives a line roughly every 50 iterations.
	Progress func(string)
}

// Mismatch is one confirmed disagreement between a source plan and its
// rewritten form, after shrinking.
type Mismatch struct {
	Iteration int
	RuleNo    int
	RuleName  string
	Repro     *Repro
	Diff      string
}

// Report summarizes a fuzzing run.
type Report struct {
	Iterations int           // iterations actually executed
	Candidates int           // rewrite candidates compared
	Mismatches []*Mismatch   // confirmed disagreements, shrunken
	Elapsed    time.Duration // wall clock
}

// Run executes the differential-testing oracle: for each iteration it draws a
// schema, populates it (cycling uniform/Zipfian distributions and NULL-heavy
// variants to stress 3VL and OUTER JOIN padding), draws a query plan, then
// executes the plan and every single-step rewrite candidate, comparing results
// under bag semantics. Mismatches are shrunk and reported with replayable
// repro artifacts.
func Run(ctx context.Context, opts Options) (*Report, error) {
	if opts.N <= 0 {
		opts.N = 100
	}
	if opts.RowsPerTable <= 0 {
		opts.RowsPerTable = 30
	}
	ruleSet := opts.Rules
	if ruleSet == nil {
		ruleSet = rules.All()
	}
	start := time.Now()
	deadline := time.Time{}
	if opts.Budget > 0 {
		deadline = start.Add(opts.Budget)
	}
	rep := &Report{}
	root := rand.New(rand.NewSource(opts.Seed))
	for i := 0; i < opts.N; i++ {
		if err := ctx.Err(); err != nil {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		// Each iteration gets its own derived rng so a single iteration can be
		// replayed without re-running its predecessors.
		iterSeed := root.Int63()
		ms, nCand, err := runIteration(iterSeed, i, ruleSet, opts.RowsPerTable)
		if err != nil {
			return rep, fmt.Errorf("iteration %d (seed %d): %w", i, iterSeed, err)
		}
		rep.Iterations++
		rep.Candidates += nCand
		if len(ms) > 0 {
			rep.Mismatches = append(rep.Mismatches, ms...)
			if opts.StopOnMismatch {
				break
			}
		}
		if opts.Progress != nil && (i+1)%50 == 0 {
			opts.Progress(fmt.Sprintf("fuzz: %d/%d iterations, %d candidates, %d mismatches",
				i+1, opts.N, rep.Candidates, len(rep.Mismatches)))
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// dataVariants are the population profiles cycled across iterations. The
// NULL-heavy entries deliberately stress three-valued logic and OUTER JOIN
// padding, where engine/verifier disagreements are most likely.
var dataVariants = []datagen.Options{
	{Dist: datagen.Uniform, NullFraction: 0.05},
	{Dist: datagen.Zipfian, Theta: 0.9, NullFraction: 0.05},
	{Dist: datagen.Uniform, NullFraction: 0.3},
	{Dist: datagen.Zipfian, Theta: 0.9, NullFraction: 0.6},
}

// runIteration performs one draw-populate-execute-compare cycle.
func runIteration(seed int64, iter int, ruleSet []rules.Rule, rows int) ([]*Mismatch, int, error) {
	rng := rand.New(rand.NewSource(seed))
	schema := GenSchema(rng)
	variant := dataVariants[iter%len(dataVariants)]
	variant.Rows = rows
	variant.Seed = seed
	variant.DistinctValues = genDistinctValues
	db := engine.NewDB(schema)
	if err := datagen.Populate(db, variant); err != nil {
		return nil, 0, fmt.Errorf("populate: %w", err)
	}
	src := GenPlan(rng, schema)
	want, err := db.Execute(src, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("execute source %s: %w", plan.ToSQLString(src), err)
	}

	rw := rewrite.NewRewriter(ruleSet, schema)
	var out []*Mismatch
	cands := rw.Candidates(src)
	for _, c := range cands {
		got, err := db.Execute(c.Plan, nil)
		if err != nil {
			// A rewrite that breaks executability is as much a soundness bug
			// as one that changes results.
			m := buildMismatch(iter, c.Rule, schema, db, src, c.Plan, variant, seed)
			m.Diff = fmt.Sprintf("rewritten plan failed to execute: %v", err)
			out = append(out, m)
			continue
		}
		if !BagEqual(want.Rows, got.Rows) {
			m := buildMismatch(iter, c.Rule, schema, db, src, c.Plan, variant, seed)
			out = append(out, m)
		}
	}

	// Also drive the full search: multi-step rewrite chains can compose rules
	// in ways no single-step candidate exercises, and the search's own
	// machinery (memo, ranking, index pruning) must not change results
	// either.
	final, applied, _ := rw.Search(src, rewrite.Options{})
	if len(applied) > 0 {
		got, err := db.Execute(final, nil)
		last := ruleByNo(ruleSet, applied[len(applied)-1].RuleNo)
		if err != nil {
			m := buildMismatch(iter, last, schema, db, src, final, variant, seed)
			m.Diff = fmt.Sprintf("searched plan failed to execute: %v", err)
			out = append(out, m)
		} else if !BagEqual(want.Rows, got.Rows) {
			out = append(out, buildMismatch(iter, last, schema, db, src, final, variant, seed))
		}
	}
	return out, len(cands), nil
}

// ruleByNo finds a rule in the set by number (the last rule of a mismatching
// search chain, for attribution); zero Rule if absent.
func ruleByNo(rs []rules.Rule, no int) rules.Rule {
	for _, r := range rs {
		if r.No == no {
			return r
		}
	}
	return rules.Rule{No: no}
}

// buildMismatch shrinks a counterexample and packages it as a repro. The
// plans are deep-cloned first: shrinking mutates literal values in place, and
// rule application shares subtrees between the source plan and every
// candidate, so shrinking the originals would corrupt later comparisons in
// the same iteration.
func buildMismatch(iter int, rule rules.Rule, schema *sql.Schema, db *engine.DB,
	src, dst plan.Node, variant datagen.Options, seed int64) *Mismatch {
	shr := Shrink(schema, db, plan.Clone(src), plan.Clone(dst))
	rp := NewRepro(seed, rule.No, rule.Name, shr.Schema, shr.DB, shr.Src, shr.Dst)
	return &Mismatch{
		Iteration: iter,
		RuleNo:    rule.No,
		RuleName:  rule.Name,
		Repro:     rp,
		Diff:      shr.Diff,
	}
}
