package rewrite

import (
	"strings"
	"testing"

	"wetune/internal/obs/journal"
	"wetune/internal/plan"
)

// TestProvenanceMatchesSearch pins the explain contract: SearchProvenance
// must return exactly what Search returns (plan, applied chain, stats) —
// provenance only observes.
func TestProvenanceMatchesSearch(t *testing.T) {
	rw := newRW(t)
	schema := gitlabSchema()
	queries := []string{
		q0,
		`SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 7)`,
		`SELECT issues.title FROM issues INNER JOIN projects ON issues.project_id = projects.id`,
		`SELECT DISTINCT id FROM labels WHERE project_id = 3`,
		`SELECT title FROM labels`,
	}
	for _, q := range queries {
		p := mustPlan(t, q, schema)
		out0, applied0, stats0 := rw.Search(p, Options{})
		prov := new(Provenance)
		out1, applied1, stats1 := rw.Search(p, Options{Provenance: prov})
		if plan.Fingerprint(out0) != plan.Fingerprint(out1) {
			t.Fatalf("%q: provenance run returned a different plan", q)
		}
		if stats0 != stats1 {
			t.Fatalf("%q: stats differ:\n  %+v\n  %+v", q, stats0, stats1)
		}
		if len(applied0) != len(applied1) {
			t.Fatalf("%q: applied chains differ: %v vs %v", q, applied0, applied1)
		}
		// The chosen-chain steps must be index-aligned with the applied chain
		// and cost-chained (each step starts where the previous ended).
		if len(prov.Steps) != len(applied1) {
			t.Fatalf("%q: %d provenance steps vs %d applied", q, len(prov.Steps), len(applied1))
		}
		for i, s := range prov.Steps {
			if s.RuleNo != applied1[i].RuleNo || s.RuleName != applied1[i].RuleName {
				t.Fatalf("%q step %d: %+v != applied %+v", q, i, s, applied1[i])
			}
		}
		// The steps chain sizes: each starts where the previous ended, from
		// the input to the returned plan, and the tail carries on from it.
		size := stats1.InitialSize
		for i, st := range append(prov.Steps, prov.Tail...) {
			if st.SizeBefore != size {
				t.Fatalf("%q: step %d starts at size %d, want %d", q, i, st.SizeBefore, size)
			}
			size = st.SizeAfter
			if i == len(prov.Steps)-1 && size != stats1.FinalSize {
				t.Fatalf("%q: the last kept step ends at size %d, stats say %d", q, size, stats1.FinalSize)
			}
		}
	}
}

// TestProvenanceAccounting checks the step/candidate/why-not bookkeeping is
// internally consistent with the search stats.
func TestProvenanceAccounting(t *testing.T) {
	rw := newRW(t)
	p := mustPlan(t, q0, gitlabSchema())
	prov := new(Provenance)
	_, applied, stats := rw.Search(p, Options{Provenance: prov})
	if len(applied) == 0 {
		t.Fatal("q0 should be rewritten")
	}

	// Every ranked candidate was stepped to, outranked or a memo hit; the
	// final expansion found nothing new unless the step budget ended the
	// search first.
	walked := len(prov.Steps) + len(prov.Tail)
	memo, notChosen := 0, 0
	for _, c := range prov.Candidates {
		switch c.Fate {
		case CandMemoHit:
			memo++
		case CandNotChosen:
			notChosen++
		}
		if c.Step > walked {
			t.Fatalf("candidate of step %d, the search took %d: %+v", c.Step, walked, c)
		}
	}
	if memo != stats.MemoHits {
		t.Fatalf("%d memo-hit candidates, stats say %d", memo, stats.MemoHits)
	}
	if memo+notChosen+walked != stats.CandidatesSeen {
		t.Fatalf("%d memo hits + %d not chosen + %d steps, stats say %d candidates", memo, notChosen, walked, stats.CandidatesSeen)
	}
	expanded := walked + 1
	if stats.TruncatedBy == "steps" {
		expanded = walked
	}
	if expanded != stats.NodesExplored {
		t.Fatalf("%d steps imply %d expansions, stats say %d", walked, expanded, stats.NodesExplored)
	}

	// The why-not funnel totals agree with the stats counters.
	var attempts, matchFailed, fired, chosen, idx, shape, memoDups int
	for _, w := range prov.WhyNot {
		attempts += w.Attempts
		matchFailed += w.MatchFailed
		fired += w.Fired
		chosen += w.Chosen
		idx += w.IndexPruned
		shape += w.ShapePruned
		memoDups += w.MemoDups
	}
	if int64(idx) != stats.IndexPruned || int64(shape) != stats.ShapePruned || memoDups != stats.MemoHits {
		t.Fatalf("why-not index %d, shape %d, memo dups %d; stats %d, %d, %d",
			idx, shape, memoDups, stats.IndexPruned, stats.ShapePruned, stats.MemoHits)
	}
	if int64(attempts) != stats.RuleAttempts {
		t.Fatalf("why-not attempts %d, stats %d", attempts, stats.RuleAttempts)
	}
	if int64(attempts-matchFailed) != stats.RuleMatches {
		t.Fatalf("why-not matches %d, stats %d", attempts-matchFailed, stats.RuleMatches)
	}
	if fired != len(applied) || chosen != walked {
		t.Fatalf("why-not fired %d, chosen %d; applied %d, steps %d", fired, chosen, len(applied), walked)
	}

	// Every rule of the index appears in the funnel exactly once.
	if len(prov.WhyNot) != rw.ruleIndex().Total() {
		t.Fatalf("%d why-not rows, index holds %d rules", len(prov.WhyNot), rw.ruleIndex().Total())
	}
	seen := map[int]bool{}
	for _, w := range prov.WhyNot {
		if seen[w.RuleNo] {
			t.Fatalf("rule %d appears twice in why-not", w.RuleNo)
		}
		seen[w.RuleNo] = true
	}
}

// TestProvenanceRendering smoke-tests the human renderings.
func TestProvenanceRendering(t *testing.T) {
	rw := newRW(t)
	p := mustPlan(t, q0, gitlabSchema())
	prov := new(Provenance)
	_, applied, _ := rw.Search(p, Options{Provenance: prov})
	steps := prov.RenderSteps()
	if !strings.HasPrefix(steps, "input  size") {
		t.Fatalf("steps missing the input line:\n%s", steps)
	}
	for _, a := range applied {
		if !strings.Contains(steps, a.RuleName) {
			t.Fatalf("steps missing applied rule %s:\n%s", a.RuleName, steps)
		}
	}
	// One line for the input, each step and each candidate not taken.
	if got, want := strings.Count(steps, "\n"), 1+len(prov.Steps)+len(prov.Tail)+len(prov.Candidates); got != want {
		t.Fatalf("steps rendered in %d lines, want %d:\n%s", got, want, steps)
	}
	whynot := prov.RenderWhyNot()
	if !strings.Contains(whynot, "FIRED") {
		t.Fatalf("why-not missing fired rules:\n%s", whynot)
	}
	if len(strings.Split(strings.TrimSpace(whynot), "\n")) != len(prov.WhyNot) {
		t.Fatalf("why-not should render one line per rule:\n%s", whynot)
	}
}

// TestProvenanceIsStatsBrokenDown: over every plannable corpus query, the
// why-not funnel sums to the search's Stats — provenance is the per-rule
// breakdown of the one record a search keeps, not a second record — and the
// search leaves nothing in the flight recorder.
func TestProvenanceIsStatsBrokenDown(t *testing.T) {
	plans, rws := corpusPlans(t)
	before := journal.Default().Written()
	for i, p := range plans {
		prov := new(Provenance)
		_, _, stats := rws[i].Search(p, Options{Provenance: prov})
		var idx, shape, attempts, memo int64
		for _, w := range prov.WhyNot {
			idx += int64(w.IndexPruned)
			shape += int64(w.ShapePruned)
			attempts += int64(w.Attempts)
			memo += int64(w.MemoDups)
		}
		if idx != stats.IndexPruned || shape != stats.ShapePruned ||
			attempts != stats.RuleAttempts || memo != int64(stats.MemoHits) {
			t.Fatalf("query %d (%s): why-not sums index %d, shape %d, attempts %d, memo %d; stats %+v",
				i, p, idx, shape, attempts, memo, stats)
		}
	}
	if moved := journal.Default().Written() - before; moved != 0 {
		t.Fatalf("%d searches wrote %d flight-recorder events, want 0", len(plans), moved)
	}
}
