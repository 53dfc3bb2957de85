package verify

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	_ "unsafe" // for go:linkname

	"wetune/internal/constraint"
	"wetune/internal/racetest"
	"wetune/internal/rules"
	"wetune/internal/smt"
	"wetune/internal/template"
	"wetune/internal/uexpr"
)

const proofGolden = "testdata/size2_proofs.golden"

// updateGolden rewrites the result columns of the table from the replay:
//
//	go test ./internal/verify -run TestSize2ProofSearchGolden -update
//
// The rows themselves — which sets the relaxation probes, in which order —
// follow from the verdicts; pipeline's determinism tests pin those.
var updateGolden = flag.Bool("update", false, "rewrite the result columns of "+proofGolden)

// goldenCall is one row of testdata/size2_proofs.golden.
type goldenCall struct {
	line   int
	items  []int  // indexes into constraint.Enumerate(src, dest).Items()
	result string // the columns after " | ", see resultColumns
	nodes  int
}

// resultColumns renders a report the way the table records it.
func resultColumns(rep Report) string {
	st := rep.Stats
	return fmt.Sprintf("%s %s %d %d %d %d %d %s", rep.Outcome, rep.Method,
		st.Nodes, st.Instances, st.Atoms, st.Decisions, st.Backtracks, st.StoppedBy)
}

type goldenPair struct {
	name  string
	calls []goldenCall
}

func readProofGolden(t *testing.T) []goldenPair {
	t.Helper()
	f, err := os.Open(proofGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var pairs []goldenPair
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if name, ok := strings.CutPrefix(text, "pair "); ok {
			pairs = append(pairs, goldenPair{name: name})
			continue
		}
		set, result, ok := strings.Cut(text, " | ")
		if !ok || len(pairs) == 0 {
			t.Fatalf("golden line %d: malformed", line)
		}
		c := goldenCall{line: line, result: result}
		for _, s := range strings.FieldsFunc(set, func(r rune) bool { return r == ',' }) {
			i, err := strconv.Atoi(s)
			if err != nil {
				t.Fatalf("golden line %d: %v", line, err)
			}
			c.items = append(c.items, i)
		}
		var outcome, method string
		if _, err := fmt.Sscan(result, &outcome, &method, &c.nodes); err != nil {
			t.Fatalf("golden line %d: %v", line, err)
		}
		p := &pairs[len(pairs)-1]
		p.calls = append(p.calls, c)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pairs
}

// TestSize2ProofSearchGolden replays every prover call of the size-2
// discovery run through one PairContext per pair, with the options of
// pipeline.DefaultPairProver, and requires the recorded outcome, method and
// solver effort exactly: the table is the proof that a solver change kept
// the search tree. No call may stop on the wall clock — the table was
// recorded without a deadline, so a clock-caused Unknown would make verdicts
// depend on the machine. (Under the race detector's slowdown the deadline is
// lifted instead of asserted.)
//
// -short replays the calls under 2000 nodes and the first five that exhaust
// the node budget; the others only prepare their closure, so later calls
// find the context in the recorded state.
func TestSize2ProofSearchGolden(t *testing.T) {
	byName := size2Pairs()
	opts := DefaultOptions()
	opts.SMT.MaxNodes = 20000
	// The race detector slows every solve several times over, so under it
	// the wall-clock deadline is lifted rather than asserted unhit.
	if racetest.Enabled || *updateGolden {
		opts.SMT.Deadline = 0
	}
	calls, exhausted := 0, 0
	replayed := map[int]string{} // golden line -> result columns now
	for _, gp := range readProofGolden(t) {
		p, ok := byName[gp.name]
		if !ok {
			t.Fatalf("golden pair %q is not a size-2 pair", gp.name)
		}
		pc := NewPairContext(p[0], p[1])
		cstar := constraint.Enumerate(p[0], p[1]).Items()
		for _, gc := range gp.calls {
			items := make([]constraint.C, len(gc.items))
			for i, idx := range gc.items {
				items[i] = cstar[idx]
			}
			cs := constraint.NewSet(items...)
			o := opts
			if testing.Short() && gc.nodes >= 2000 {
				overBudget := gc.nodes > opts.SMT.MaxNodes
				if overBudget {
					exhausted++
				}
				if !overBudget || exhausted > 5 {
					o.SkipSMT = true
					pc.VerifyOpts(cs, o)
					continue
				}
			}
			calls++
			rep := pc.VerifyOpts(cs, o)
			if rep.Stats.StoppedBy == smt.StopDeadline {
				t.Errorf("golden line %d (%s): stopped on the clock after %d nodes", gc.line, gp.name, rep.Stats.Nodes)
			}
			got := resultColumns(rep)
			replayed[gc.line] = got
			if got != gc.result && !*updateGolden {
				t.Errorf("golden line %d (%s):\n  want %s\n  got  %s", gc.line, gp.name, gc.result, got)
			}
		}
	}
	if !testing.Short() && calls != 1523 {
		t.Errorf("replayed %d calls, want 1523", calls)
	}
	if *updateGolden && !t.Failed() {
		writeProofGolden(t, replayed)
	}
}

// TestSize2ProofSearchGoldenThroughMemo replays every row of the table, as
// TestSize2ProofSearchGolden does, but through one smt.Memo shared by all
// pairs, the way a discovery run's proof cache shares it. Every row must
// keep its recorded columns, whether its goals were solved or answered from
// the memo, and the replay, single-threaded and without a deadline, makes
// exactly 461 solves and answers 361 goals from the memo.
func TestSize2ProofSearchGoldenThroughMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the node-budget searches in full")
	}
	byName := size2Pairs()
	memo := new(smt.Memo)
	opts := DefaultOptions()
	opts.SMT.MaxNodes = 20000
	opts.SMT.Deadline = 0
	opts.Context = smt.WithMemo(context.Background(), memo)
	// Calls and memo hits per stop class of the call's last solve.
	calls, hits := map[smt.Stop]int{}, map[smt.Stop]int{}
	for _, gp := range readProofGolden(t) {
		p := byName[gp.name]
		pc := NewPairContext(p[0], p[1])
		cstar := constraint.Enumerate(p[0], p[1]).Items()
		for _, gc := range gp.calls {
			items := make([]constraint.C, len(gc.items))
			for i, idx := range gc.items {
				items[i] = cstar[idx]
			}
			hits0, misses0, _ := memo.Counts()
			rep := pc.VerifyOpts(constraint.NewSet(items...), opts)
			if got := resultColumns(rep); got != gc.result {
				t.Errorf("golden line %d (%s):\n  want %s\n  got  %s", gc.line, gp.name, gc.result, got)
			}
			if h, m, _ := memo.Counts(); h+m > hits0+misses0 {
				calls[rep.Stats.StoppedBy]++
				hits[rep.Stats.StoppedBy] += h - hits0
			}
		}
	}
	for c := smt.StopNone; c <= smt.StopDeadline; c++ {
		if calls[c] > 0 {
			t.Logf("stopped-by %s: %d of %d calls answered from the memo", c, hits[c], calls[c])
		}
	}
	if h, m, _ := memo.Counts(); h != 361 || m != 461 {
		t.Errorf("memo answered %d goals and missed %d, want 361 and 461", h, m)
	}
}

// size2Pairs indexes the size-2 template pairs by the name the table gives them.
func size2Pairs() map[string][2]*template.Node {
	byName := map[string][2]*template.Node{}
	ts := template.Enumerate(template.EnumOptions{MaxSize: 2})
	for _, src := range ts {
		for _, dest := range ts {
			if dest.NotMoreOpsThan(src) {
				renamed := template.RenameApart(src, dest)
				byName[src.String()+" => "+renamed.String()] = [2]*template.Node{src, renamed}
			}
		}
	}
	return byName
}

// size2NormalFormsSHA256 pins the normalizer's output: the canonical normal
// forms of both sides of every closure the size-2 replay prepares and of the
// 34 Table 7 rules. Together with the proof table (which depends on factor
// order through the FOL formulas) it pins both canon text and factor order.
// It was last re-recorded when rule 25 left the library: the new value is
// the previous hash input with its "rule 25" block removed, and no other
// entry changed.
const size2NormalFormsSHA256 = "19faf9c7ac6d59ebfb987bd9c0533df6bdb5871da4fc3e98050e8c76b50d1561"

// eachSize2Context prepares every closure the size-2 replay probes (the same
// PairContext.entry sequence, without the solver) and hands fn each pair's
// context, in table order, with its entries by the key of the closure they
// were prepared for. The memo must hold one entry per distinct closure.
func eachSize2Context(t *testing.T, fn func(name string, pc *PairContext, byClosure map[string]*pairEntry)) {
	t.Helper()
	byName := size2Pairs()
	for _, gp := range readProofGolden(t) {
		p, ok := byName[gp.name]
		if !ok {
			t.Fatalf("golden pair %q is not a size-2 pair", gp.name)
		}
		pc := NewPairContext(p[0], p[1])
		if pc.terr != nil {
			t.Fatalf("golden pair %q does not translate: %v", gp.name, pc.terr)
		}
		cstar := constraint.Enumerate(p[0], p[1]).Items()
		byClosure := map[string]*pairEntry{}
		for _, gc := range gp.calls {
			items := make([]constraint.C, len(gc.items))
			for i, idx := range gc.items {
				items[i] = cstar[idx]
			}
			cs := constraint.NewSet(items...)
			key, e := constraint.Closure(cs).Key(), pc.entry(cs)
			if prev, ok := byClosure[key]; ok && prev != e {
				t.Fatalf("%s: one closure, two memo entries (golden line %d)", gp.name, gc.line)
			}
			byClosure[key] = e
		}
		if len(byClosure) != len(pc.memo) {
			t.Fatalf("%s: %d distinct closures, %d memo entries", gp.name, len(byClosure), len(pc.memo))
		}
		fn(gp.name, pc, byClosure)
	}
}

// TestSize2NormalFormsGolden hashes the memo of every context
// eachSize2Context prepares, in table order, entries sorted by the key of
// their closure, followed by the Table 7 rules' normal forms under their own
// constraints.
func TestSize2NormalFormsGolden(t *testing.T) {
	h := sha256.New()
	entries := 0
	eachSize2Context(t, func(name string, _ *PairContext, byClosure map[string]*pairEntry) {
		keys := make([]string, 0, len(byClosure))
		for key := range byClosure {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		entries += len(keys)
		fmt.Fprintf(h, "pair %s\n", name)
		for _, key := range keys {
			e := byClosure[key]
			fmt.Fprintf(h, "%s\n%s\n%s\n", key, e.ns.Canon(), e.nd.Canon())
		}
	})
	for _, r := range rules.Table7() {
		fmt.Fprintf(h, "rule %d\n", r.No)
		pc := NewPairContext(r.Src, r.Dest)
		if pc.terr != nil {
			fmt.Fprintf(h, "unsupported\n")
			continue
		}
		e := pc.entry(r.Constraints)
		fmt.Fprintf(h, "%s\n%s\n", e.ns.Canon(), e.nd.Canon())
	}
	t.Logf("%d size-2 closures", entries)
	if got := hex.EncodeToString(h.Sum(nil)); got != size2NormalFormsSHA256 {
		t.Errorf("normal forms hash %s, want %s", got, size2NormalFormsSHA256)
	}
}

// TestCanonIgnoresListOrder shuffles every normal form of
// TestSize2NormalFormsGolden 20 times, seeded: its terms, every term's
// factors and bound variables, nested terms' included. Each shuffle must keep
// the form's Canon(), since bound variables are named by rank, not by their
// place in Term.Vars.
func TestCanonIgnoresListOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	forms, most := 0, 0
	check := func(name string, nfs ...*uexpr.NF) {
		for _, nf := range nfs {
			forms++
			want := nf.Canon()
			for range 20 {
				if got := shuffleNF(rng, nf, &most).Canon(); got != want {
					t.Fatalf("%s: shuffled normal form renders\n  %s\nnot\n  %s", name, got, want)
				}
			}
		}
	}
	eachSize2Context(t, func(name string, pc *PairContext, _ map[string]*pairEntry) {
		for _, e := range pc.memo {
			check(name, e.ns, e.nd)
		}
	})
	for _, r := range rules.Table7() {
		if pc := NewPairContext(r.Src, r.Dest); pc.terr == nil {
			e := pc.entry(r.Constraints)
			check(fmt.Sprintf("rule %d", r.No), e.ns, e.nd)
		}
	}
	t.Logf("%d normal forms, at most %d binders in one term", forms, most)
}

// shuffleNF copies nf with its terms, every term's factors and bound
// variables, and those of nested terms, in random order, and raises most to
// the largest number of binders a term has.
func shuffleNF(rng *rand.Rand, nf *uexpr.NF, most *int) *uexpr.NF {
	terms := make([]*uexpr.Term, len(nf.Terms))
	for i, tm := range nf.Terms {
		*most = max(*most, len(tm.Vars))
		factors := make([]uexpr.Factor, len(tm.Factors))
		for j, f := range tm.Factors {
			switch x := f.(type) {
			case *uexpr.NotNF:
				f = &uexpr.NotNF{NF: shuffleNF(rng, x.NF, most)}
			case *uexpr.SquashNF:
				f = &uexpr.SquashNF{NF: shuffleNF(rng, x.NF, most)}
			}
			factors[j] = f
		}
		vars := slices.Clone(tm.Vars)
		rng.Shuffle(len(vars), func(a, b int) { vars[a], vars[b] = vars[b], vars[a] })
		rng.Shuffle(len(factors), func(a, b int) { factors[a], factors[b] = factors[b], factors[a] })
		terms[i] = &uexpr.Term{Vars: vars, Factors: factors}
	}
	rng.Shuffle(len(terms), func(a, b int) { terms[a], terms[b] = terms[b], terms[a] })
	return &uexpr.NF{Terms: terms}
}

// normalizeRounds is uexpr.Normalize, also returning the simplify rounds it
// ran and the normal form one more round makes of the result, with whether
// that round reported a change. The normalizer's rounds are not exported, so
// the test links to the unexported function.
//
//go:linkname normalizeRounds wetune/internal/uexpr.normalizeRounds
func normalizeRounds(e uexpr.Expr, env *uexpr.Env) (nf *uexpr.NF, rounds int, again *uexpr.NF, changed bool)

// TestNormalizeIsAFixpoint normalizes both sides of every closure the size-2
// replay prepares and of every Table 7 rule again, and requires Normalize to
// have stopped at a fixpoint: one more simplify round reports no change and
// leaves the canonical text as it is. A round that changed the normal form
// without reporting it, or a term left at the 12-round or the 40-iteration
// cap, fails here.
func TestNormalizeIsAFixpoint(t *testing.T) {
	sides, rounds, most := 0, 0, 0
	check := func(name string, pc *PairContext, e *pairEntry) {
		esR, edR, _ := pc.sides(e.reps)
		env := buildEnv(e.u)
		for i, side := range []uexpr.Expr{esR, edR} {
			nf, n, again, changed := normalizeRounds(side, env)
			sides, rounds, most = sides+1, rounds+n, max(most, n)
			if got, want := nf.Canon(), []*uexpr.NF{e.ns, e.nd}[i].Canon(); got != want {
				t.Fatalf("%s: normalizeRounds gives %s, Normalize %s", name, got, want)
			}
			if changed || again.Canon() != nf.Canon() {
				t.Errorf("%s: after %d rounds, one more (change reported: %v) takes\n  %s\nto\n  %s",
					name, n, changed, nf.Canon(), again.Canon())
			}
		}
	}
	eachSize2Context(t, func(name string, pc *PairContext, _ map[string]*pairEntry) {
		for _, e := range pc.memo {
			check(name, pc, e)
		}
	})
	for _, r := range rules.Table7() {
		if pc := NewPairContext(r.Src, r.Dest); pc.terr == nil {
			check(fmt.Sprintf("rule %d", r.No), pc, pc.entry(r.Constraints))
		}
	}
	t.Logf("%d normalizations, %d simplify rounds, at most %d in one", sides, rounds, most)
}

// writeProofGolden replaces the result columns of every replayed row.
func writeProofGolden(t *testing.T, replayed map[int]string) {
	old, err := os.ReadFile(proofGolden)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(old), "\n")
	for line, result := range replayed {
		set, _, _ := strings.Cut(lines[line-1], " | ")
		lines[line-1] = set + " | " + result
	}
	if err := os.WriteFile(proofGolden, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}
