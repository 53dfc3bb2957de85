// Package rules encodes the useful rewrite rules WeTune discovered (Table 7
// of the paper) as first-class rule values, with the paper's metadata: which
// verifier the paper says proves each rule (W = built-in, S = SPES, B = both)
// and whether Calcite / MS SQL Server already know it. The library holds
// only rules a verifier proves; testdata/verdicts.golden pins each rule's
// measured verdicts, and DESIGN.md says why rule 25 is left out.
package rules

import (
	"fmt"

	"wetune/internal/constraint"
	"wetune/internal/template"
)

// Rule is a rewrite rule with Table 7 metadata.
type Rule struct {
	No          int
	Name        string
	Src         *template.Node
	Dest        *template.Node
	Constraints *constraint.Set
	// Verifier is the paper's tag: "W" built-in only, "S" SPES only, "B" both.
	Verifier string
	// Calcite reports whether Apache Calcite supports the rule.
	Calcite bool
	// MS is "Y", "N" or "C" (conditional) for MS SQL Server support.
	MS string
}

func (r Rule) String() string {
	return fmt.Sprintf("rule %d (%s): %s => %s under %s", r.No, r.Name, r.Src, r.Dest, r.Constraints)
}

// Symbol shorthands used by the rule table.
func rel(id int) template.Sym        { return template.Sym{Kind: template.KRel, ID: id} }
func ats(id int) template.Sym        { return template.Sym{Kind: template.KAttrs, ID: id} }
func prd(id int) template.Sym        { return template.Sym{Kind: template.KPred, ID: id} }
func fn(id int) template.Sym         { return template.Sym{Kind: template.KFunc, ID: id} }
func of(r template.Sym) template.Sym { return template.AttrsOf(r) }

func cset(cs ...constraint.C) *constraint.Set { return constraint.NewSet(cs...) }

func sub(a, b template.Sym) constraint.C   { return constraint.New(constraint.SubAttrs, a, b) }
func uniq(r, a template.Sym) constraint.C  { return constraint.New(constraint.Unique, r, a) }
func nn(r, a template.Sym) constraint.C    { return constraint.New(constraint.NotNull, r, a) }
func releq(a, b template.Sym) constraint.C { return constraint.New(constraint.RelEq, a, b) }
func atreq(a, b template.Sym) constraint.C { return constraint.New(constraint.AttrsEq, a, b) }
func ref(r1, a1, r2, a2 template.Sym) constraint.C {
	return constraint.New(constraint.RefAttrs, r1, a1, r2, a2)
}

// Table7 returns 34 of the 35 useful rules: all but rule 25, which neither
// verifier proves. Shared symbols between source and destination templates
// encode the equivalence constraints, exactly like the table's notation; each
// r_i.a_j qualification becomes SubAttrs(a_j, a_{r_i}).
func Table7() []Rule {
	r0, r1, r2 := rel(0), rel(1), rel(2)
	a0, a1, a2, a3, a4 := ats(0), ats(1), ats(2), ats(3), ats(4)
	p0, p1 := prd(0), prd(1)
	f0 := fn(0)
	in := template.Input

	rules := []Rule{
		{
			No: 1, Name: "sel-proj-swap",
			Src:  template.Sel(p0, a0, template.Proj(a1, in(r0))),
			Dest: template.Proj(a1, template.Sel(p0, a0, in(r0))),
			// The predicate's attributes must come from the projection.
			Constraints: cset(sub(a0, a1), sub(a0, of(r0)), sub(a1, of(r0))),
			Verifier:    "B", Calcite: true, MS: "Y",
		},
		{
			No: 2, Name: "dedup-unique-proj",
			Src:         template.Dedup(template.Proj(a0, in(r0))),
			Dest:        template.Proj(a0, in(r0)),
			Constraints: cset(uniq(r0, a0), sub(a0, of(r0))),
			Verifier:    "W", Calcite: false, MS: "Y",
		},
		{
			No: 3, Name: "sel-idempotent",
			Src:         template.Sel(p0, a0, template.Sel(p0, a0, in(r0))),
			Dest:        template.Sel(p0, a0, in(r0)),
			Constraints: cset(sub(a0, of(r0))),
			Verifier:    "B", Calcite: true, MS: "Y",
		},
		{
			No: 4, Name: "insub-idempotent",
			Src:         template.InSub(a0, template.InSub(a0, in(r0), in(r1)), in(r1)),
			Dest:        template.InSub(a0, in(r0), in(r1)),
			Constraints: cset(sub(a0, of(r0))),
			Verifier:    "W", Calcite: false, MS: "N",
		},
		{
			No: 5, Name: "proj-sel-proj-collapse",
			Src:         template.Proj(a0, template.Sel(p0, a1, template.Proj(a2, in(r0)))),
			Dest:        template.Proj(a0, template.Sel(p0, a1, in(r0))),
			Constraints: cset(sub(a0, a2), sub(a1, a2), sub(a0, of(r0)), sub(a1, of(r0)), sub(a2, of(r0))),
			Verifier:    "B", Calcite: true, MS: "Y",
		},
		{
			No: 6, Name: "ljoin-to-ijoin",
			Src:         template.Join(template.OpLJoin, a0, a1, in(r0), in(r1)),
			Dest:        template.Join(template.OpIJoin, a0, a1, in(r0), in(r1)),
			Constraints: cset(ref(r0, a0, r1, a1), nn(r0, a0), sub(a0, of(r0)), sub(a1, of(r1))),
			Verifier:    "W", Calcite: false, MS: "Y",
		},
		{
			No: 7, Name: "ijoin-elim",
			Src:  template.Proj(a2, template.Join(template.OpIJoin, a0, a1, in(r0), in(r1))),
			Dest: template.Proj(a2, in(r0)),
			Constraints: cset(ref(r0, a0, r1, a1), nn(r0, a0), uniq(r1, a1),
				sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r0))),
			Verifier: "W", Calcite: false, MS: "Y",
		},
		{
			No: 8, Name: "ijoin-elim-under-sel",
			Src:  template.Proj(a2, template.Sel(p0, a3, template.Join(template.OpIJoin, a0, a1, in(r0), in(r1)))),
			Dest: template.Proj(a2, template.Sel(p0, a3, in(r0))),
			Constraints: cset(ref(r0, a0, r1, a1), nn(r0, a0), uniq(r1, a1),
				sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r0)), sub(a3, of(r0))),
			Verifier: "W", Calcite: false, MS: "C",
		},
		{
			No: 9, Name: "ijoin-elim-under-dedup",
			Src:  template.Dedup(template.Proj(a2, template.Join(template.OpIJoin, a0, a1, in(r0), in(r1)))),
			Dest: template.Dedup(template.Proj(a2, in(r0))),
			Constraints: cset(ref(r0, a0, r1, a1), nn(r0, a0),
				sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r0)), uniq(r1, a1)),
			Verifier: "W", Calcite: false, MS: "Y",
		},
		{
			No: 10, Name: "ijoin-elim-under-dedup-sel",
			Src: template.Dedup(template.Proj(a2, template.Sel(p0, a3,
				template.Join(template.OpIJoin, a0, a1, in(r0), in(r1))))),
			Dest: template.Dedup(template.Proj(a2, template.Sel(p0, a3, in(r0)))),
			Constraints: cset(ref(r0, a0, r1, a1), nn(r0, a0),
				sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r0)), sub(a3, of(r0)), uniq(r1, a1)),
			Verifier: "W", Calcite: false, MS: "C",
		},
		{
			No: 11, Name: "ljoin-elim",
			Src:  template.Proj(a2, template.Join(template.OpLJoin, a0, a1, in(r0), in(r1))),
			Dest: template.Proj(a2, in(r0)),
			Constraints: cset(uniq(r1, a1),
				sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r0))),
			Verifier: "W", Calcite: false, MS: "Y",
		},
		{
			No: 12, Name: "ljoin-elim-under-sel",
			Src: template.Proj(a3, template.Sel(p0, a2,
				template.Join(template.OpLJoin, a0, a1, in(r0), in(r1)))),
			Dest: template.Proj(a3, template.Sel(p0, a2, in(r0))),
			Constraints: cset(uniq(r1, a1),
				sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r0)), sub(a3, of(r0))),
			Verifier: "W", Calcite: false, MS: "Y",
		},
		{
			No: 13, Name: "ljoin-elim-under-dedup",
			Src:  template.Dedup(template.Proj(a2, template.Join(template.OpLJoin, a0, a1, in(r0), in(r1)))),
			Dest: template.Dedup(template.Proj(a2, in(r0))),
			Constraints: cset(
				sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r0))),
			Verifier: "W", Calcite: false, MS: "Y",
		},
		{
			No: 14, Name: "ljoin-elim-under-dedup-sel",
			Src: template.Dedup(template.Proj(a3, template.Sel(p0, a2,
				template.Join(template.OpLJoin, a0, a1, in(r0), in(r1))))),
			Dest: template.Dedup(template.Proj(a3, template.Sel(p0, a2, in(r0)))),
			Constraints: cset(
				sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r0)), sub(a3, of(r0))),
			Verifier: "W", Calcite: false, MS: "Y",
		},
		{
			No: 15, Name: "self-insub-elim",
			// r and r1 are distinct occurrences of the same relation.
			Src:  template.InSub(a0, in(r0), template.Proj(a1, in(r1))),
			Dest: in(r0),
			Constraints: cset(releq(r0, r1), atreq(a0, a1), nn(r0, a0),
				sub(a0, of(r0)), sub(a1, of(r1))),
			Verifier: "W", Calcite: true, MS: "N",
		},
		{
			No: 16, Name: "self-join-elim",
			Src:  template.Proj(a0, template.Join(template.OpIJoin, a0, a1, in(r0), in(r1))),
			Dest: template.Proj(a0, in(r0)),
			Constraints: cset(releq(r0, r1), atreq(a0, a1), nn(r0, a0), uniq(r0, a0),
				sub(a0, of(r0)), sub(a1, of(r1))),
			Verifier: "W", Calcite: false, MS: "N",
		},
		{
			No: 17, Name: "proj-col-switch",
			Src:         template.Proj(a1, template.Join(template.OpIJoin, a0, a1, in(r0), in(r1))),
			Dest:        template.Proj(a0, template.Join(template.OpIJoin, a0, a1, in(r0), in(r1))),
			Constraints: cset(sub(a0, of(r0)), sub(a1, of(r1))),
			Verifier:    "B", Calcite: false, MS: "N",
		},
		{
			No: 18, Name: "proj-col-switch-under-sel",
			Src: template.Proj(a1, template.Sel(p0, a2,
				template.Join(template.OpIJoin, a0, a1, in(r0), in(r1)))),
			Dest: template.Proj(a0, template.Sel(p0, a2,
				template.Join(template.OpIJoin, a0, a1, in(r0), in(r1)))),
			Constraints: cset(sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r0))),
			Verifier:    "B", Calcite: false, MS: "N",
		},
		{
			No: 19, Name: "sel-col-switch",
			Src:         template.Sel(p0, a1, template.Join(template.OpIJoin, a0, a1, in(r0), in(r1))),
			Dest:        template.Sel(p0, a0, template.Join(template.OpIJoin, a0, a1, in(r0), in(r1))),
			Constraints: cset(sub(a0, of(r0)), sub(a1, of(r1))),
			Verifier:    "W", Calcite: false, MS: "Y",
		},
		{
			No: 20, Name: "join-key-transitivity",
			Src: template.Join(template.OpIJoin, a1, a2,
				template.Join(template.OpIJoin, a0, a1, in(r0), in(r1)), in(r2)),
			Dest: template.Join(template.OpIJoin, a0, a2,
				template.Join(template.OpIJoin, a0, a1, in(r0), in(r1)), in(r2)),
			Constraints: cset(sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r2))),
			Verifier:    "B", Calcite: false, MS: "Y",
		},
		{
			No: 21, Name: "ljoin-key-transitivity",
			Src: template.Join(template.OpLJoin, a1, a2,
				template.Join(template.OpIJoin, a0, a1, in(r0), in(r1)), in(r2)),
			Dest: template.Join(template.OpLJoin, a0, a2,
				template.Join(template.OpIJoin, a0, a1, in(r0), in(r1)), in(r2)),
			Constraints: cset(sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r2))),
			Verifier:    "W", Calcite: false, MS: "Y",
		},
		{
			No: 22, Name: "join-commute",
			Src:         template.Proj(a2, template.Join(template.OpIJoin, a0, a1, in(r0), in(r1))),
			Dest:        template.Proj(a2, template.Join(template.OpIJoin, a1, a0, in(r1), in(r0))),
			Constraints: cset(sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r0))),
			Verifier:    "B", Calcite: true, MS: "Y",
		},
		{
			No: 23, Name: "join-associate",
			Src: template.Join(template.OpIJoin, a0, a1, in(r0),
				template.Join(template.OpIJoin, a2, a3, in(r1), in(r2))),
			Dest: template.Join(template.OpIJoin, a2, a3,
				template.Join(template.OpIJoin, a0, a1, in(r0), in(r1)), in(r2)),
			Constraints: cset(sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r1)), sub(a3, of(r2))),
			Verifier:    "B", Calcite: true, MS: "Y",
		},
		{
			No: 24, Name: "insub-to-join",
			Src:  template.Proj(a2, template.InSub(a0, in(r0), template.Proj(a1, in(r1)))),
			Dest: template.Proj(a2, template.Join(template.OpIJoin, a0, a1, in(r0), in(r1))),
			Constraints: cset(uniq(r1, a1),
				sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r0))),
			Verifier: "B", Calcite: true, MS: "Y",
		},
		{
			No: 26, Name: "dedup-absorbs-inner-dedup",
			Src: template.Dedup(template.Proj(a2, template.Join(template.OpIJoin, a0, a1,
				in(r0), template.Dedup(in(r1))))),
			Dest: template.Dedup(template.Proj(a2, template.Join(template.OpIJoin, a0, a1,
				in(r0), in(r1)))),
			Constraints: cset(sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r0))),
			Verifier:    "W", Calcite: false, MS: "Y",
		},
		{
			No: 27, Name: "sel-pullup-from-join",
			Src: template.Join(template.OpIJoin, a0, a1, in(r0),
				template.Sel(p0, a2, in(r1))),
			Dest: template.Sel(p0, a2,
				template.Join(template.OpIJoin, a0, a1, in(r0), in(r1))),
			Constraints: cset(sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r1))),
			Verifier:    "B", Calcite: true, MS: "Y",
		},
		{
			No: 28, Name: "sel-pushdown-to-join",
			Src: template.Sel(p0, a2,
				template.Join(template.OpIJoin, a0, a1, in(r0), in(r1))),
			Dest: template.Join(template.OpIJoin, a0, a1, in(r0),
				template.Sel(p0, a2, in(r1))),
			Constraints: cset(sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r1))),
			Verifier:    "B", Calcite: true, MS: "Y",
		},
		{
			No: 29, Name: "drop-inner-proj",
			Src: template.Proj(a2, template.Join(template.OpIJoin, a0, a1, in(r0),
				template.Proj(a1, in(r1)))),
			Dest:        template.Proj(a2, template.Join(template.OpIJoin, a0, a1, in(r0), in(r1))),
			Constraints: cset(sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r0))),
			Verifier:    "B", Calcite: false, MS: "Y",
		},
		{
			No: 30, Name: "sel-col-switch-self-join",
			// r0 and r1 are the same relation joined on a unique key, so the
			// predicate can read either side.
			Src: template.Sel(p0, a0, template.Join(template.OpIJoin, a1, a2, in(r0), in(r1))),
			Dest: func() *template.Node {
				return template.Sel(p0, a3, template.Join(template.OpIJoin, a1, a2, in(r0), in(r1)))
			}(),
			Constraints: cset(releq(r0, r1), atreq(a1, a2), atreq(a0, a3), uniq(r0, a1),
				sub(a0, of(r0)), sub(a1, of(r0)), sub(a2, of(r1)), sub(a3, of(r1))),
			Verifier: "B", Calcite: false, MS: "N",
		},
		{
			No: 31, Name: "drop-left-inner-proj-ljoin",
			Src: template.Proj(a0, template.Join(template.OpLJoin, a1, a2,
				template.Proj(a3, in(r0)), in(r1))),
			Dest: template.Proj(a0, template.Join(template.OpLJoin, a1, a2, in(r0), in(r1))),
			Constraints: cset(sub(a0, a3), sub(a1, a3),
				sub(a0, of(r0)), sub(a1, of(r0)), sub(a2, of(r1)), sub(a3, of(r0))),
			Verifier: "B", Calcite: true, MS: "Y",
		},
		{
			No: 32, Name: "drop-right-inner-proj-ljoin",
			Src: template.Proj(a0, template.Join(template.OpLJoin, a1, a2,
				in(r0), template.Proj(a3, in(r1)))),
			Dest: template.Proj(a0, template.Join(template.OpLJoin, a1, a2, in(r0), in(r1))),
			Constraints: cset(sub(a2, a3),
				sub(a0, of(r0)), sub(a1, of(r0)), sub(a2, of(r1)), sub(a3, of(r1))),
			Verifier: "S", Calcite: true, MS: "Y",
		},
		{
			No: 33, Name: "agg-drop-inner-proj",
			Src: template.AggNode(a0, a1, f0, p0,
				template.Sel(p1, a2, template.Proj(a3, in(r0)))),
			Dest: template.AggNode(a0, a1, f0, p0,
				template.Sel(p1, a2, in(r0))),
			Constraints: cset(sub(a0, a3), sub(a1, a3), sub(a2, a3),
				sub(a0, of(r0)), sub(a1, of(r0)), sub(a2, of(r0)), sub(a3, of(r0))),
			Verifier: "S", Calcite: true, MS: "Y",
		},
		{
			No: 34, Name: "agg-drop-join-inner-proj",
			Src: template.AggNode(a0, a1, f0, p0,
				template.Join(template.OpIJoin, a2, a3, template.Proj(a4, in(r0)), in(r1))),
			Dest: template.AggNode(a0, a1, f0, p0,
				template.Join(template.OpIJoin, a2, a3, in(r0), in(r1))),
			Constraints: cset(sub(a0, a4), sub(a1, a4), sub(a2, a4),
				sub(a0, of(r0)), sub(a1, of(r0)), sub(a2, of(r0)), sub(a3, of(r1)), sub(a4, of(r0))),
			Verifier: "S", Calcite: false, MS: "Y",
		},
		{
			No: 35, Name: "agg-having-absorbs-filter",
			Src: template.AggNode(a0, a1, f0, p0,
				template.Sel(p0, a0, in(r0))),
			Dest:        template.AggNode(a0, a1, f0, p0, in(r0)),
			Constraints: cset(sub(a0, of(r0)), sub(a1, of(r0))),
			Verifier:    "S", Calcite: true, MS: "N",
		},
	}
	return rules
}

// ByNo returns the Table 7 rule with the given number.
func ByNo(no int) (Rule, bool) {
	for _, r := range Table7() {
		if r.No == no {
			return r, true
		}
	}
	return Rule{}, false
}

// Extra returns additional rules discovered by this implementation's own
// enumerator+verifier beyond Table 7 — the paper reports 1106 promising
// rules, of which Table 7 lists only the 35 useful ones; these extras are
// needed to fully optimize the motivating queries of Table 1 (q0 requires
// collapsing a self IN-subquery whose subquery carries its own filter).
// Every extra rule is machine-verified by the built-in verifier in the
// package tests.
func Extra() []Rule {
	r0, r1 := rel(0), rel(1)
	a0, a1, a2, a3, a4, a5 := ats(0), ats(1), ats(2), ats(3), ats(4), ats(5)
	p0, p1 := prd(0), prd(1)
	in := template.Input

	return []Rule{
		{
			No: 103, Name: "sel-col-switch-filtered-self-join",
			// Figure 8 step (3)->(4): a predicate above a self join on a
			// unique key may read either side, even when one side carries an
			// extra filter — matched rows are the same physical row.
			Src: template.Sel(p1, a4, template.Join(template.OpIJoin, a1, a2,
				template.Sel(p0, a3, in(r0)), in(r1))),
			Dest: template.Sel(p1, a5, template.Join(template.OpIJoin, a1, a2,
				template.Sel(p0, a3, in(r0)), in(r1))),
			Constraints: cset(
				releq(r0, r1), atreq(a1, a2), atreq(a4, a5), uniq(r0, a1),
				sub(a1, of(r0)), sub(a2, of(r1)), sub(a3, of(r0)),
				sub(a4, of(r1)), sub(a5, of(r0)),
			),
			Verifier: "W", Calcite: false, MS: "N",
		},
		{
			No: 101, Name: "self-insub-filter-absorb",
			// x IN (SELECT pk FROM same_table WHERE p) == p(x-row), when the
			// IN column is a unique, non-NULL key of the same relation.
			Src:  template.InSub(a0, in(r0), template.Proj(a1, template.Sel(p0, a2, in(r1)))),
			Dest: template.Sel(p0, a3, in(r0)),
			Constraints: cset(
				releq(r0, r1), atreq(a0, a1), atreq(a2, a3),
				uniq(r0, a0), nn(r0, a0),
				sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r1)), sub(a3, of(r0)),
			),
			Verifier: "W", Calcite: false, MS: "N",
		},
		{
			No: 102, Name: "self-insub-elim-keyed",
			// x IN (SELECT pk FROM same_table) == true for every row (keyed,
			// non-NULL); rule 15 generalized to matching on any unique key.
			Src:  template.InSub(a0, template.Sel(p0, a2, in(r0)), template.Proj(a1, in(r1))),
			Dest: template.Sel(p0, a2, in(r0)),
			Constraints: cset(
				releq(r0, r1), atreq(a0, a1), nn(r0, a0),
				sub(a0, of(r0)), sub(a1, of(r1)), sub(a2, of(r0)),
			),
			Verifier: "W", Calcite: false, MS: "N",
		},
	}
}

// All returns Table 7 plus the extra discovered rules.
func All() []Rule {
	return append(Table7(), Extra()...)
}
