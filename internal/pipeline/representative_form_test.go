package pipeline

import (
	"bufio"
	"context"
	"flag"
	"maps"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"wetune/internal/constraint"
	"wetune/internal/obs"
	"wetune/internal/rules"
	"wetune/internal/template"
)

// size3 adds the size-3 discovery to the representative-form tests: every
// implication query and every prover call of a run with the algebraic
// prover. It takes about half a minute:
//
//	go test ./internal/pipeline -run MatchesClosure -size3 -v
var size3 = flag.Bool("size3", false, "also check the size-3 discovery's implication queries and prover calls")

// proofTable is the verifier's record of every size-2 prover call: the set
// probed, as indexes into constraint.Enumerate(src, dest).Items(), and the
// outcome.
const proofTable = "../verify/testdata/size2_proofs.golden"

// tableProver answers the size-2 prover calls with the verdicts the proof
// table records, so that a replay follows the discovery's search without
// proving anything. A call the table does not hold fails the test.
func tableProver(t *testing.T) PairProverFactory {
	t.Helper()
	f, err := os.Open(proofTable)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string][]string{} // pair name -> "items | result" lines
	name := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		switch line := sc.Text(); {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "pair "):
			name = strings.TrimPrefix(line, "pair ")
		default:
			rows[name] = append(rows[name], line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return func(src, dest *template.Node) Prover {
		cstar := constraint.Enumerate(src, dest).Items()
		verified := map[string]bool{}
		for _, row := range rows[src.String()+" => "+dest.String()] {
			set, result, _ := strings.Cut(row, " | ")
			var cs []constraint.C
			for _, idx := range strings.FieldsFunc(set, func(r rune) bool { return r == ',' }) {
				i, err := strconv.Atoi(idx)
				if err != nil {
					t.Fatalf("proof table row %q: %v", row, err)
				}
				cs = append(cs, cstar[i])
			}
			verified[constraint.NewSet(cs...).Key()] = strings.HasPrefix(result, "verified ")
		}
		return func(_ context.Context, src, dest *template.Node, cs *constraint.Set) bool {
			v, ok := verified[cs.Key()]
			if !ok {
				t.Errorf("%s => %s: the proof table holds no call on %v", src, dest, cs)
			}
			return v
		}
	}
}

// replay relaxes every pair a discovery over ts tries, in Run's pair order,
// with the given prover and implication test, and returns the rules found.
func replay(ts []*template.Node, prover PairProverFactory, implies func(*constraint.Set, constraint.C) bool) []Rule {
	opts := Options{PairProver: prover, Metrics: obs.NewRegistry()}
	opts.fill()
	ct := &counters{start: time.Now(), cache: opts.Cache}
	var found []Rule
	eachTriedPair(ts, func(src, dest *template.Node, cstar *constraint.Set) {
		s := newRelaxer(context.Background(), src, dest, opts, ct, opts.Metrics)
		s.implies = implies
		found = append(found, s.search(cstar, opts.deletionOrders)...)
	})
	return found
}

// eachTriedPair hands fn every pair of ts a discovery tries, with its C*.
func eachTriedPair(ts []*template.Node, fn func(src, dest *template.Node, cstar *constraint.Set)) {
	for _, src := range ts {
		for _, d := range ts {
			if !d.NotMoreOpsThan(src) {
				continue
			}
			dest := RenameApart(src, d)
			if cstar := filterRefAttrs(constraint.Enumerate(src, dest), src, dest); cstar.Len() <= defaultMaxConstraints {
				fn(src, dest, cstar)
			}
		}
	}
}

// randomSubsets hands fn subsets of every tried size-2 pair's C*, sparse and
// dense, drawn from one seed, with the C* they were drawn from.
func randomSubsets(fn func(s, cstar *constraint.Set)) {
	rng := rand.New(rand.NewSource(36))
	eachTriedPair(template.Enumerate(template.EnumOptions{MaxSize: 2}), func(_, _ *template.Node, cstar *constraint.Set) {
		for _, keep := range []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.8} {
			var cs []constraint.C
			for _, c := range cstar.Items() {
				if rng.Float64() < keep {
					cs = append(cs, c)
				}
			}
			fn(constraint.NewSet(cs...), cstar)
		}
	})
}

// checkedImplies is constraint.Implies checked against the closure.
func checkedImplies(t *testing.T, queries, implied *int) func(*constraint.Set, constraint.C) bool {
	return func(s *constraint.Set, c constraint.C) bool {
		got := constraint.Implies(s, c)
		if want := constraint.Closure(s).Has(c); got != want {
			t.Errorf("Implies(%v, %v) = %v, the closure says %v", s, c, got, want)
		}
		*queries++
		if got {
			*implied++
		}
		return got
	}
}

// TestImpliesMatchesClosure requires constraint.Implies to answer exactly
// what the closure holds on every implication query of the size-2
// relaxation, and for every member of each tried pair's C* against random
// subsets of it.
func TestImpliesMatchesClosure(t *testing.T) {
	var queries, implied int
	found := replay(template.Enumerate(template.EnumOptions{MaxSize: 2}), tableProver(t), checkedImplies(t, &queries, &implied))
	if queries != 6279 || implied != 4576 || len(found) != 69 {
		t.Errorf("size-2 replay: %d implication queries, %d implied, %d rules; want 6279, 4576 and 69", queries, implied, len(found))
	}
	subsets, held := 0, 0
	randomSubsets(func(s, cstar *constraint.Set) {
		cl := constraint.Closure(s)
		subsets++
		for _, c := range cstar.Items() {
			got := constraint.Implies(s, c)
			if got != cl.Has(c) {
				t.Fatalf("Implies(%v, %v) = %v, the closure says %v", s, c, got, !got)
			}
			if got && !s.Has(c) {
				held++
			}
		}
	})
	t.Logf("size 2: %d queries, %d implied; %d random subsets imply %d members of C* they do not hold", queries, implied, subsets, held)
	if *size3 {
		queries, implied = 0, 0
		found := replay(template.Enumerate(template.EnumOptions{MaxSize: 3}), AlgebraicPairProver, checkedImplies(t, &queries, &implied))
		t.Logf("size 3: %d queries, %d implied, %d rules", queries, implied, len(found))
	}
}

// closureResidual is the residual read from the closure: its non-equality
// members renamed to representatives, each once, in closure order.
func closureResidual(cl *constraint.Set, reps map[template.Sym]template.Sym) *constraint.Set {
	out := make([]constraint.C, 0, cl.Len())
	for _, c := range cl.Items() {
		switch c.Kind {
		case constraint.RelEq, constraint.AttrsEq, constraint.PredEq, constraint.AggrEq:
			continue
		}
		out = append(out, c.Rename(reps))
	}
	return constraint.NewSet(out...)
}

// closureSources is Unification.Sources read from the closure: the
// representative of each r with SubAttrs(x, a_r) in it and Rep(x) == Rep(a),
// each once, in closure order.
func closureSources(cl *constraint.Set, u constraint.Unification, a template.Sym) []template.Sym {
	var out []template.Sym
	for _, c := range cl.ByKind(constraint.SubAttrs) {
		if c.Syms[1].Kind != template.KAttrsOf || u.Rep(c.Syms[0]) != u.Rep(a) {
			continue
		}
		if r := u.Rep(template.Sym{Kind: template.KRel, ID: c.Syms[1].ID}); !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	return out
}

// checkResidual requires Unify(cs) to give the closure's classes, residual
// member for member, and attribute sources.
func checkResidual(t *testing.T, cs *constraint.Set) {
	t.Helper()
	cl := constraint.Closure(cs)
	u, ref := constraint.Unify(cs), constraint.Unify(cl)
	reps := ref.Reps()
	if !maps.Equal(u.Reps(), reps) {
		t.Fatalf("%v: Reps %v, the closure's %v", cs, u.Reps(), reps)
	}
	if got, want := u.Residual().String(), closureResidual(cl, reps).String(); got != want {
		t.Fatalf("%v: residual\n  %s\nthe closure's\n  %s", cs, got, want)
	}
	for _, c := range cs.ByKind(constraint.SubAttrs) {
		a := c.Syms[0]
		if got, want := u.Sources(a), closureSources(cl, ref, a); !slices.Equal(got, want) {
			t.Fatalf("%v: Sources(%v) %v, the closure's %v", cs, a, got, want)
		}
	}
}

// checkingProver checks the residual of every set it is asked about before
// the prover answers.
func checkingProver(t *testing.T, prover PairProverFactory, calls *int) PairProverFactory {
	return func(src, dest *template.Node) Prover {
		inner := prover(src, dest)
		return func(ctx context.Context, s, d *template.Node, cs *constraint.Set) bool {
			checkResidual(t, cs)
			*calls++
			return inner(ctx, s, d, cs)
		}
	}
}

// TestResidualMatchesClosure requires Unify to read the closure's classes,
// residual and attribute sources from the generators: on every set the
// size-2 relaxation asks the prover about, on the rules it finds, on random
// subsets of each tried pair's C*, and on the Table 7 rules.
func TestResidualMatchesClosure(t *testing.T) {
	calls := 0
	found := replay(template.Enumerate(template.EnumOptions{MaxSize: 2}), checkingProver(t, tableProver(t), &calls), constraint.Implies)
	if calls != 1523 || len(found) != 69 {
		t.Errorf("size-2 replay: %d prover calls, %d rules; want 1523 and 69", calls, len(found))
	}
	for _, r := range found {
		checkResidual(t, r.Constraints)
	}
	randomSubsets(func(s, _ *constraint.Set) { checkResidual(t, s) })
	for _, r := range rules.Table7() {
		checkResidual(t, r.Constraints)
	}
	if *size3 {
		calls = 0
		found := replay(template.Enumerate(template.EnumOptions{MaxSize: 3}), checkingProver(t, AlgebraicPairProver, &calls), constraint.Implies)
		for _, r := range found {
			checkResidual(t, r.Constraints)
		}
		t.Logf("size 3: %d prover calls, %d rules", calls, len(found))
	}
}
