package rewrite

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"wetune/internal/plan"
	"wetune/internal/rules"
)

func TestRuleIndexCoversAllRules(t *testing.T) {
	rs := rules.All()
	ix := NewRuleIndex(rs)
	if ix.Total() != len(rs) {
		t.Fatalf("index total = %d, want %d", ix.Total(), len(rs))
	}
	compiled := ix.Rules()
	if len(compiled) != len(rs) {
		t.Fatalf("Rules() returned %d rules, want %d", len(compiled), len(rs))
	}
	seen := map[int]bool{}
	for i, cr := range compiled {
		if i > 0 && compiled[i-1].Rule.No > cr.Rule.No {
			t.Fatalf("Rules() not sorted: %d before %d", compiled[i-1].Rule.No, cr.Rule.No)
		}
		seen[cr.Rule.No] = true
	}
	for _, r := range rs {
		if !seen[r.No] {
			t.Fatalf("rule %d missing from index", r.No)
		}
	}
}

func TestBucketSizeNeverExceedsTotal(t *testing.T) {
	ix := NewRuleIndex(rules.All())
	for _, kind := range []plan.Kind{plan.KScan, plan.KProj, plan.KSel, plan.KInSub,
		plan.KJoin, plan.KDedup, plan.KAgg, plan.KUnion, plan.KSort, plan.KLimit} {
		if n := ix.BucketSize(kind); n > ix.Total() {
			t.Fatalf("bucket %v = %d exceeds total %d", kind, n, ix.Total())
		}
	}
	// At least one kind must have a strictly smaller bucket, or the index
	// prunes nothing.
	pruned := false
	for _, kind := range []plan.Kind{plan.KScan, plan.KSort, plan.KLimit} {
		if ix.BucketSize(kind) < ix.Total() {
			pruned = true
		}
	}
	if !pruned {
		t.Fatal("index prunes nothing: every bucket holds every rule")
	}
}

// TestShapePrecheckSound verifies the ops-only shape precheck never prunes a
// fragment the full matcher would bind: wherever ApplyCompiled succeeds,
// shapeMatches must have said yes.
func TestShapePrecheckSound(t *testing.T) {
	schema := gitlabSchema()
	m := &Matcher{Schema: schema}
	queries := []string{
		`SELECT * FROM labels WHERE id IN (SELECT id FROM labels WHERE project_id = 10)`,
		`SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 7)`,
		`SELECT issues.title FROM issues INNER JOIN projects ON issues.project_id = projects.id`,
		`SELECT DISTINCT id FROM labels`,
	}
	for _, q := range queries {
		p := mustPlan(t, q, schema)
		for _, r := range rules.All() {
			cr := CompileRule(r)
			for _, path := range nodePaths(p) {
				frag := nodeAt(p, path)
				if _, ok := m.ApplyCompiled(cr, frag); ok && !shapeMatches(cr.Rule.Src, frag) {
					t.Fatalf("rule %d matches fragment at %v of %q but shape precheck prunes it",
						r.No, path, q)
				}
			}
		}
	}
}

// TestIndexedCandidatesMatchGreedy verifies the index is a pure accelerator:
// the indexed expansion produces exactly the candidate set the exhaustive
// all-rules-times-all-positions loop produces.
func TestIndexedCandidatesMatchGreedy(t *testing.T) {
	rw := newRW(t)
	queries := []string{
		`SELECT * FROM labels WHERE id IN (SELECT id FROM labels WHERE project_id = 10)`,
		`SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 7)`,
		`SELECT issues.title FROM issues INNER JOIN projects ON issues.project_id = projects.id`,
		`SELECT DISTINCT id FROM labels WHERE project_id = 3`,
		`SELECT name FROM projects`,
	}
	for _, q := range queries {
		p := mustPlan(t, q, gitlabSchema())
		indexed := map[string]bool{}
		for _, c := range rw.Candidates(p) {
			indexed[plan.Fingerprint(c.Plan)] = true
		}
		exhaustive := map[string]bool{}
		for _, c := range rw.greedyCandidates(p) {
			exhaustive[plan.Fingerprint(c.Plan)] = true
		}
		for fp := range exhaustive {
			if !indexed[fp] {
				t.Fatalf("%q: index drops candidate plan %s", q, fp)
			}
		}
		for fp := range indexed {
			if !exhaustive[fp] {
				t.Fatalf("%q: index invents candidate plan %s", q, fp)
			}
		}
	}
}

// TestCompileRuleDeterministic verifies compiling the same rule repeatedly
// yields identical shape keys, relocation targets, symbol slots with their
// classes in the same member order, and constraint list (compilation feeds the
// shared immutable index, so it must not depend on map iteration order; the
// resolver and the constraint check take a class's first bound member).
func TestCompileRuleDeterministic(t *testing.T) {
	for _, r := range rules.All() {
		a := CompileRule(r)
		for range 50 {
			b := CompileRule(r)
			if a.shapeKey != b.shapeKey {
				t.Fatalf("rule %d: shape keys differ across compilations", r.No)
			}
			if !maps.EqualFunc(a.relocTarget, b.relocTarget, slices.Equal) {
				t.Fatalf("rule %d: relocation targets differ across compilations", r.No)
			}
			if !slices.Equal(a.syms, b.syms) || !reflect.DeepEqual(a.class, b.class) {
				t.Fatalf("rule %d: symbol slots or classes differ across compilations", r.No)
			}
			if !slices.Equal(a.checks, b.checks) {
				t.Fatalf("rule %d: constraint list %v, then %v", r.No, a.checks, b.checks)
			}
		}
	}
}
