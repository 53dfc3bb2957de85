package spes

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"wetune/internal/constraint"
	"wetune/internal/obs"
	"wetune/internal/plan"
	"wetune/internal/sql"
	"wetune/internal/template"
)

// VerifyRule checks a rewrite rule with the SPES-style procedure: concretize
// both templates (§5.2), then prove plan equivalence by normalization and
// isomorphism. reason explains failures. Verdicts are counted in the default
// metrics registry (verify_spes_ok / verify_spes_fail).
func VerifyRule(src, dest *template.Node, cs *constraint.Set) (bool, string) {
	ok, reason := verifyRule(src, dest, cs)
	if ok {
		obs.Default().Counter("verify_spes_ok").Inc()
	} else {
		obs.Default().Counter("verify_spes_fail").Inc()
	}
	return ok, reason
}

func verifyRule(src, dest *template.Node, cs *constraint.Set) (bool, string) {
	cSrc, cDest, err := Concretize(src, dest, cs)
	if err != nil {
		return false, err.Error()
	}
	return VerifyPlans(cSrc.Plan, cDest.Plan)
}

// VerifyPlans proves equivalence of two concrete plans. Integrity
// constraints are deliberately not consulted, and plans over different
// multisets of base tables are rejected (Table 6).
func VerifyPlans(a, b plan.Node) (bool, string) {
	ta, tb := plan.BaseTables(a), plan.BaseTables(b)
	if strings.Join(ta, ",") != strings.Join(tb, ",") {
		return false, fmt.Sprintf("different input tables: %v vs %v", ta, tb)
	}
	na := canonicalize(a, true)
	nb := canonicalize(b, true)
	// Output columns are compared by name (aliases normalize away) modulo
	// the equality classes induced by inner-join conditions: a column equal
	// to another on every output row may stand in for it. UNION outputs take
	// their names from the first arm, which commutation permutes, so only
	// the arity is compared there.
	if _, isUnion := na.(*plan.Union); isUnion {
		if len(a.OutCols()) != len(b.OutCols()) {
			return false, "different output arity"
		}
	} else {
		oa := classedOutNames(a, na)
		ob := classedOutNames(b, nb)
		if strings.Join(oa, ",") != strings.Join(ob, ",") {
			return false, fmt.Sprintf("different output columns: %v vs %v", oa, ob)
		}
	}
	fa, fb := aliasFree(na), aliasFree(nb)
	if fa == fb {
		return true, ""
	}
	return false, fmt.Sprintf("normal forms differ:\n  %s\n  %s", fa, fb)
}

// classedOutNames renders the original plan's output column names, rewriting
// each through the equality classes of the canonicalized body.
func classedOutNames(orig plan.Node, canon plan.Node) []string {
	classes := columnClasses(canon)
	cols := orig.OutCols()
	out := make([]string, len(cols))
	for i, c := range cols {
		key := c.String()
		if rep, ok := classes[key]; ok {
			out[i] = rep
		} else {
			out[i] = c.Column
		}
	}
	return out
}

// columnClasses derives column equivalence classes from the equality
// conjuncts guarding the root of the canonical plan (a Sel directly above an
// inner-join group applies to every output row). Keys are qualified names;
// the representative is the least bare column name among the members, which
// the aliases in the qualifiers do not influence.
func columnClasses(n plan.Node) map[string]string {
	bare := func(qualified string) string {
		return qualified[strings.LastIndex(qualified, ".")+1:]
	}
	var conds []sql.Expr
	switch x := n.(type) {
	case *plan.Sel:
		conds = sql.SplitConjuncts(x.Pred)
	case *plan.Join:
		if x.JoinKind == sql.InnerJoin && x.On != nil {
			conds = sql.SplitConjuncts(x.On)
		}
	}
	if sel, ok := n.(*plan.Sel); ok {
		if j, ok := sel.In.(*plan.Join); ok && j.JoinKind == sql.InnerJoin && j.On != nil {
			conds = append(conds, sql.SplitConjuncts(j.On)...)
		}
	}
	parent := map[string]string{}
	var find func(x string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	for _, c := range conds {
		be, ok := c.(*sql.BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		l, lok := be.L.(*sql.ColumnRef)
		r, rok := be.R.(*sql.ColumnRef)
		if !lok || !rok {
			continue
		}
		lk := sql.FormatExpr(l)
		rk := sql.FormatExpr(r)
		ra, rb := find(lk), find(rk)
		if ra != rb {
			if bare(ra) < bare(rb) || bare(ra) == bare(rb) && ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	out := map[string]string{}
	for k := range parent {
		out[k] = bare(find(k))
	}
	return out
}

func outNames(n plan.Node) []string {
	cols := n.OutCols()
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Column
	}
	return out
}

// canonicalize rewrites a plan into SPES's canonical algebraic form:
//
//   - interior projections are dropped (bag semantics: removing unused
//     columns cannot change multiplicities); the root projection is kept;
//   - stacked selections merge, their conjuncts deduplicated and sorted;
//   - inner-join trees flatten into a join set with sorted inputs and
//     conditions (commutativity + associativity);
//   - Dedup(Dedup) collapses; UNION arms sort.
func canonicalize(n plan.Node, isRoot bool) plan.Node {
	switch x := n.(type) {
	case *plan.Scan:
		return x
	case *plan.Derived:
		inner := canonicalize(x.In, false)
		return &plan.Derived{Binding: x.Binding, In: inner}
	case *plan.Proj:
		// All projections are stripped; outputs are compared separately.
		return canonicalize(x.In, false)
	case *plan.Sel:
		inner := canonicalize(x.In, false)
		conj := sql.SplitConjuncts(x.Pred)
		for {
			s, ok := inner.(*plan.Sel)
			if !ok {
				break
			}
			conj = append(conj, sql.SplitConjuncts(s.Pred)...)
			inner = s.In
		}
		// Deduplicate + sort conjuncts by their printed form (equality
		// operands ordered canonically first).
		bindings := plan.AppendBindings(nil, inner)
		seen := map[string]sql.Expr{}
		for _, e := range conj {
			e = normalizeCond(e, bindings)
			seen[condKey(e, bindings)] = e
		}
		keys := make([]string, 0, len(seen))
		for k := range seen {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var merged []sql.Expr
		for _, k := range keys {
			merged = append(merged, seen[k])
		}
		return &plan.Sel{Pred: sql.JoinConjuncts(merged), In: inner}
	case *plan.InSub:
		return &plan.InSub{
			Cols: x.Cols,
			In:   canonicalize(x.In, false),
			Sub:  canonicalize(x.Sub, false),
		}
	case *plan.Join:
		if x.JoinKind == sql.InnerJoin {
			return canonicalizeJoinGroup(x)
		}
		return &plan.Join{
			JoinKind: x.JoinKind,
			On:       x.On,
			L:        canonicalize(x.L, false),
			R:        canonicalize(x.R, false),
		}
	case *plan.Dedup:
		inner := canonicalize(x.In, false)
		if d, ok := inner.(*plan.Dedup); ok {
			return d
		}
		return &plan.Dedup{In: inner}
	case *plan.Agg:
		inner := canonicalize(x.In, false)
		having := x.Having
		// A HAVING condition that only reads group-by columns filters groups
		// exactly like a pre-aggregation selection filters their rows; the
		// canonical form keeps it as a selection below the aggregate.
		if having != nil && exprReadsOnly(having, x.GroupBy) {
			inner = canonicalize(&plan.Sel{Pred: having, In: inner}, false)
			having = nil
		}
		return &plan.Agg{
			GroupBy: x.GroupBy,
			Items:   x.Items,
			Having:  having,
			In:      inner,
		}
	case *plan.Union:
		l := canonicalize(x.L, false)
		r := canonicalize(x.R, false)
		if aliasFree(l) > aliasFree(r) {
			l, r = r, l
		}
		return &plan.Union{All: x.All, L: l, R: r}
	case *plan.Sort:
		return &plan.Sort{Keys: x.Keys, In: canonicalize(x.In, false)}
	case *plan.Limit:
		return &plan.Limit{N: x.N, In: canonicalize(x.In, false)}
	}
	return n
}

// canonicalizeJoinGroup flattens a tree of inner joins into inputs +
// conditions, sorts both, and rebuilds a left-deep tree. Selections sitting
// on join inputs hoist into the condition set (sound for INNER joins), so
// predicate push-down/pull-up variants normalize identically.
func canonicalizeJoinGroup(j *plan.Join) plan.Node {
	var inputs []plan.Node
	var conds []sql.Expr
	var collect func(n plan.Node)
	collect = func(n plan.Node) {
		if jo, ok := n.(*plan.Join); ok && jo.JoinKind == sql.InnerJoin {
			collect(jo.L)
			collect(jo.R)
			if jo.On != nil {
				conds = append(conds, sql.SplitConjuncts(jo.On)...)
			}
			return
		}
		core := canonicalize(n, false)
		for {
			s, ok := core.(*plan.Sel)
			if !ok {
				break
			}
			conds = append(conds, sql.SplitConjuncts(s.Pred)...)
			core = s.In
		}
		inputs = append(inputs, core)
	}
	collect(j)
	// Stable: scans of one table keep their relative order, as their aliases
	// must not decide it.
	sort.SliceStable(inputs, func(a, b int) bool {
		return aliasFree(inputs[a]) < aliasFree(inputs[b])
	})
	out := inputs[0]
	for _, in := range inputs[1:] {
		out = &plan.Join{JoinKind: sql.InnerJoin, L: out, R: in}
	}
	bindings := plan.AppendBindings(nil, out)
	// Split conditions into column equalities (canonicalized as spanning
	// chains over their transitive-equality classes, so {a=b, b=c} and
	// {a=b, a=c} normalize identically) and everything else.
	parent := map[string]string{}
	var find func(x string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	colExpr := map[string]sql.Expr{}
	var others []sql.Expr
	for _, c := range conds {
		be, ok := c.(*sql.BinaryExpr)
		if ok && be.Op == "=" {
			l, lok := be.L.(*sql.ColumnRef)
			r, rok := be.R.(*sql.ColumnRef)
			if lok && rok {
				lk, rk := condKey(l, bindings), condKey(r, bindings)
				colExpr[lk], colExpr[rk] = l, r
				ra, rb := find(lk), find(rk)
				if ra != rb {
					if ra < rb {
						parent[rb] = ra
					} else {
						parent[ra] = rb
					}
				}
				continue
			}
		}
		others = append(others, normalizeCond(c, bindings))
	}
	classes := map[string][]string{}
	for k := range parent {
		root := find(k)
		classes[root] = append(classes[root], k)
	}
	var sorted []sql.Expr
	var roots []string
	for root := range classes {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	for _, root := range roots {
		members := classes[root]
		sort.Strings(members)
		for i := 0; i+1 < len(members); i++ {
			sorted = append(sorted, &sql.BinaryExpr{Op: "=", L: colExpr[members[i]], R: colExpr[members[i+1]]})
		}
	}
	// Non-equality conditions, deduplicated and sorted.
	seen := map[string]sql.Expr{}
	var keys []string
	for _, c := range others {
		key := condKey(c, bindings)
		if _, dup := seen[key]; !dup {
			seen[key] = c
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		sorted = append(sorted, seen[k])
	}
	sort.Slice(sorted, func(i, j int) bool {
		return condKey(sorted[i], bindings) < condKey(sorted[j], bindings)
	})
	if len(sorted) > 0 {
		// Canonical form: all conditions live in one selection above the
		// condition-free join chain, so push-down variants converge.
		out = &plan.Sel{Pred: sql.JoinConjuncts(sorted), In: out}
	}
	return out
}

// normalizeCond orders the operands of an equality condition canonically.
func normalizeCond(e sql.Expr, bindings []string) sql.Expr {
	if be, ok := e.(*sql.BinaryExpr); ok && be.Op == "=" {
		if condKey(be.L, bindings) > condKey(be.R, bindings) {
			return &sql.BinaryExpr{Op: "=", L: be.R, R: be.L}
		}
	}
	return e
}

// condKey is the text conditions are oriented, deduplicated and sorted by:
// e with the qualifiers in bindings — the bindings of the plan e guards, in
// order of appearance — written as positions, so that the aliases a query
// happened to choose decide nothing.
func condKey(e sql.Expr, bindings []string) string {
	return string(sql.AppendExprPositional(nil, e, bindings))
}

// aliasFree renders a plan with its own bindings written as positions.
func aliasFree(n plan.Node) string {
	return string(plan.AppendAliasFingerprint(nil, n, plan.AppendBindings(nil, n)))
}

// UsesIntegrityConstraints reports whether the rule's constraint set relies
// on Unique / NotNull / RefAttrs — the cases SPES cannot handle (§8.5).
func UsesIntegrityConstraints(cs *constraint.Set) bool {
	for _, c := range cs.Items() {
		switch c.Kind {
		case constraint.Unique, constraint.NotNull, constraint.RefAttrs:
			return true
		}
	}
	return false
}

// exprReadsOnly reports whether every free column reference of e names, by
// bare column name, one of cols.
func exprReadsOnly(e sql.Expr, cols []plan.ColRef) bool {
	ok := true
	sql.FreeColumns(e, nil, func(cr *sql.ColumnRef) {
		ok = ok && slices.ContainsFunc(cols, func(c plan.ColRef) bool { return c.Column == cr.Column })
	})
	return ok
}
