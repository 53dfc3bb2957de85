// Package rewrite applies WeTune rules to concrete query plans (§6, §7): it
// matches a rule's source template against plan fragments, checks the rule's
// constraints against schema integrity metadata (its equalities through the
// rule's unification classes), instantiates the destination template, and
// runs a greedy descent over the rewritten plans, ranked by size. It also
// houses the ORDER BY elimination and redundant-rule reduction of §7.
package rewrite

import (
	"bytes"
	"slices"
	"strings"

	"wetune/internal/constraint"
	"wetune/internal/plan"
	"wetune/internal/sql"
	"wetune/internal/template"
)

// attrsBinding records the concrete columns an attribute-list symbol matched,
// together with the subplan whose output they belong to (for Origin checks).
type attrsBinding struct {
	cols  []plan.ColRef
	owner plan.Node
}

// predBinding records the concrete predicate a predicate symbol matched plus
// the subplan scope it is evaluated over (for instance-aware comparison).
type predBinding struct {
	expr  sql.Expr
	owner plan.Node
}

// slot is one symbol's binding in an attempt.
type slot[V any] struct {
	v  V
	ok bool
}

// binding maps a rule's symbols, by the slots CompileRule numbered them with,
// to the plan fragments an attempt bound them to: a symbol's slot is set in
// the one array its kind binds into. It is matcher scratch: each attempt
// resets it for its rule and reuses the storage.
type binding struct {
	cr    *CompiledRule
	rels  []slot[plan.Node]
	attrs []slot[attrsBinding]
	preds []slot[predBinding]
	funcs []slot[[]plan.AggItem]
}

// reset sizes the slots to cr's tables and unbinds them all.
func (b *binding) reset(cr *CompiledRule) {
	b.cr = cr
	n := len(cr.syms)
	b.rels = resetSlots(b.rels, n)
	b.attrs = resetSlots(b.attrs, n)
	b.preds = resetSlots(b.preds, n)
	b.funcs = resetSlots(b.funcs, n)
}

// release drops every reference the slots hold and keeps the storage.
func (b *binding) release() {
	b.cr = nil
	clear(b.rels[:cap(b.rels)])
	clear(b.attrs[:cap(b.attrs)])
	clear(b.preds[:cap(b.preds)])
	clear(b.funcs[:cap(b.funcs)])
}

func resetSlots[V any](s []slot[V], n int) []slot[V] {
	if cap(s) < n {
		return make([]slot[V], n)
	}
	s = s[:n]
	clear(s)
	return s
}

// renames reports whether a projection item renames its output column. Proj_a
// outputs the attributes a under their own names, and a destination rebuilds
// its projections from attribute lists alone, so a match through an aliased
// projection would answer with other column names than the query's.
func renames(it plan.ProjItem) bool { return it.Alias != "" }

// noHaving is the predicate an Agg without HAVING binds its predicate symbol
// to: TRUE. It is shared by every attempt, so it must not reach a plan: the
// resolver hands out a copy.
var noHaving = &sql.Literal{Val: sql.NewBool(true)}

// aliasEqual reports whether two subplans are equal up to table aliases: each
// is fingerprinted into matcher scratch with its Scan/Derived bindings written
// as their first-appearance positions, so two scans of one table under
// different aliases compare equal. The bytes are those of
// plan.Fingerprint(renameBindings(n, binding -> "b<position>")): both reach
// every free column reference of a predicate, CASE arms and the correlated
// references of embedded statements included.
func (m *Matcher) aliasEqual(a, b plan.Node) bool {
	m.fpA = m.appendAliasFingerprint(m.fpA[:0], a)
	m.fpB = m.appendAliasFingerprint(m.fpB[:0], b)
	return bytes.Equal(m.fpA, m.fpB)
}

func (m *Matcher) appendAliasFingerprint(dst []byte, n plan.Node) []byte {
	m.bindA = plan.AppendBindings(m.bindA[:0], n)
	return plan.AppendAliasFingerprint(dst, n, m.bindA)
}

// match attempts to bind tpl against n, extending b. On failure b holds
// partial bindings; the next attempt resets it.
func (m *Matcher) match(tpl *template.Node, n plan.Node, b *binding) bool {
	switch tpl.Op {
	case template.OpInput:
		r := &b.rels[b.cr.slotOf(tpl.Rel)]
		if r.ok {
			return m.aliasEqual(r.v, n)
		}
		*r = slot[plan.Node]{v: n, ok: true}
		return true
	case template.OpProj:
		p, ok := n.(*plan.Proj)
		if !ok || slices.ContainsFunc(p.Items, renames) {
			return false
		}
		cols, plain := m.appendCols(p.AppendPlainCols)
		if !plain {
			return false
		}
		if !m.bindAttrs(tpl.Attrs, cols, p.In, b) {
			return false
		}
		return m.match(tpl.Children[0], p.In, b)
	case template.OpSel:
		s, ok := n.(*plan.Sel)
		if !ok {
			return false
		}
		start := len(m.cols)
		m.cols = plan.AppendFreeColumns(m.cols, s.Pred, m.Schema)
		if len(m.cols) == start {
			// Predicates over constants only still match with the input's
			// first column standing in for the attribute list.
			if len(m.outCols(s.In)) == 0 {
				return false
			}
			m.cols = m.cols[:start+1]
		}
		cols := m.cols[start:len(m.cols):len(m.cols)]
		if !m.bindAttrs(tpl.Attrs, cols, s.In, b) {
			return false
		}
		if !m.bindPred(tpl.Pred, s.Pred, s.In, b) {
			return false
		}
		return m.match(tpl.Children[0], s.In, b)
	case template.OpInSub:
		is, ok := n.(*plan.InSub)
		if !ok {
			return false
		}
		if !m.bindAttrs(tpl.Attrs, is.Cols, is.In, b) {
			return false
		}
		return m.match(tpl.Children[0], is.In, b) && m.match(tpl.Children[1], is.Sub, b)
	case template.OpIJoin, template.OpLJoin, template.OpRJoin:
		j, ok := n.(*plan.Join)
		if !ok {
			return false
		}
		var want sql.JoinKind
		switch tpl.Op {
		case template.OpIJoin:
			want = sql.InnerJoin
		case template.OpLJoin:
			want = sql.LeftJoin
		default:
			want = sql.RightJoin
		}
		if j.JoinKind != want {
			return false
		}
		cols, ok := m.appendCols(j.AppendEquiCols)
		if !ok {
			return false
		}
		k := len(cols) / 2
		lc, rc := cols[:k:k], cols[k:]
		if !m.bindAttrs(tpl.Attrs, lc, j.L, b) || !m.bindAttrs(tpl.Attrs2, rc, j.R, b) {
			return false
		}
		return m.match(tpl.Children[0], j.L, b) && m.match(tpl.Children[1], j.R, b)
	case template.OpDedup:
		d, ok := n.(*plan.Dedup)
		if !ok {
			return false
		}
		return m.match(tpl.Children[0], d.In, b)
	case template.OpAgg:
		a, ok := n.(*plan.Agg)
		if !ok {
			return false
		}
		if !m.bindAttrs(tpl.Attrs, a.GroupBy, a.In, b) {
			return false
		}
		start := len(m.cols)
		for _, it := range a.Items {
			if cr, isCol := it.Arg.(*sql.ColumnRef); isCol {
				m.cols = append(m.cols, plan.ColRef{Table: cr.Table, Column: cr.Column})
			}
		}
		aggCols := m.cols[start:len(m.cols):len(m.cols)]
		if len(aggCols) == 0 {
			aggCols = a.GroupBy
		}
		if !m.bindAttrs(tpl.Attrs2, aggCols, a.In, b) {
			return false
		}
		if f := &b.funcs[b.cr.slotOf(tpl.Func)]; f.ok {
			if !aggItemsEqual(f.v, a.Items) {
				return false
			}
		} else {
			*f = slot[[]plan.AggItem]{v: a.Items, ok: true}
		}
		having := a.Having
		if having == nil {
			having = noHaving
		}
		if !m.bindPred(tpl.Pred, having, a.In, b) {
			return false
		}
		return m.match(tpl.Children[0], a.In, b)
	case template.OpUnion:
		u, ok := n.(*plan.Union)
		if !ok {
			return false
		}
		return m.match(tpl.Children[0], u.L, b) && m.match(tpl.Children[1], u.R, b)
	}
	return false
}

func aggItemsEqual(a, b []plan.AggItem) bool { return aggItemsKey(a) == aggItemsKey(b) }

func aggItemsKey(items []plan.AggItem) string {
	parts := make([]string, len(items))
	for i, it := range items {
		arg := "*"
		if it.Arg != nil {
			arg = sql.FormatExpr(it.Arg)
			if it.Distinct {
				arg = "distinct " + arg
			}
		}
		parts[i] = it.Func + "(" + arg + ")"
	}
	return strings.Join(parts, ",")
}

// bindAttrs binds an attribute symbol, or checks consistency with an
// existing binding (same symbol appearing twice means equal attributes).
func (m *Matcher) bindAttrs(sym template.Sym, cols []plan.ColRef, owner plan.Node, b *binding) bool {
	nb := attrsBinding{cols: cols, owner: owner}
	a := &b.attrs[b.cr.slotOf(sym)]
	if a.ok {
		return m.attrsEquivalent(a.v, nb)
	}
	*a = slot[attrsBinding]{v: nb, ok: true}
	return true
}

func (m *Matcher) bindPred(sym template.Sym, pred sql.Expr, owner plan.Node, b *binding) bool {
	nb := predBinding{expr: pred, owner: owner}
	p := &b.preds[b.cr.slotOf(sym)]
	if p.ok {
		return m.predsEquivalent(p.v, nb)
	}
	*p = slot[predBinding]{v: nb, ok: true}
	return true
}

// appendCols runs an Append accessor of the plan package into the attempt's
// column arena and returns what it appended, capped so that a later append
// cannot overwrite it. The arena is reset per attempt, so a binding may keep
// the slice for the attempt; what an instantiated plan keeps is copied.
func (m *Matcher) appendCols(appendTo func([]plan.ColRef) ([]plan.ColRef, bool)) ([]plan.ColRef, bool) {
	start := len(m.cols)
	var ok bool
	m.cols, ok = appendTo(m.cols)
	return m.cols[start:len(m.cols):len(m.cols)], ok
}

// instances lists, into matcher scratch, the table instances of two subplans:
// their plan.AppendBindings lists (scan/derived bindings in first-appearance
// order), the numbering aliasEqual uses. Two columns from different scopes
// denote "the same attribute of the same relation instance" when their aliases
// sit at the same position (slices.Index; -1 for an alias from outside the
// subplan) — comparison by bare base-table origin would collapse the two
// instances of a self-joined table.
func (m *Matcher) instances(a, b plan.Node) (ia, ib []string) {
	m.bindA = plan.AppendBindings(m.bindA[:0], a)
	m.bindB = plan.AppendBindings(m.bindB[:0], b)
	return m.bindA, m.bindB
}

// attrsEquivalent compares two attribute bindings by the base-table origin of
// each column (AttrsEq semantics: the same attributes of the same relation)
// AND the positional instance the column's alias denotes within each
// binding's scope, so the two sides of a self-join never compare equal.
func (m *Matcher) attrsEquivalent(a, b attrsBinding) bool {
	if len(a.cols) != len(b.cols) {
		return false
	}
	ia, ib := m.instances(a.owner, b.owner)
	for i := range a.cols {
		if slices.Index(ia, a.cols[i].Table) != slices.Index(ib, b.cols[i].Table) {
			return false
		}
		t1, c1, ok1 := plan.Origin(a.owner, a.cols[i])
		t2, c2, ok2 := plan.Origin(b.owner, b.cols[i])
		if !ok1 || !ok2 {
			// Fall back to bare column-name comparison.
			if a.cols[i].Column != b.cols[i].Column {
				return false
			}
			continue
		}
		if t1 != t2 || c1 != c2 {
			return false
		}
	}
	return true
}

// predsEquivalent compares predicates with column qualifiers canonicalized to
// the positional instance they denote within each predicate's own scope:
// `m.commit_id = 7` and `n.commit_id = 7` over the same relation instance
// (position) compare equal, while predicates reading the two sides of a
// self-join — same base table, different instances — do not.
func (m *Matcher) predsEquivalent(a, b predBinding) bool {
	ia, ib := m.instances(a.owner, b.owner)
	m.fpA = sql.AppendExprPositional(m.fpA[:0], a.expr, ia)
	m.fpB = sql.AppendExprPositional(m.fpB[:0], b.expr, ib)
	return bytes.Equal(m.fpA, m.fpB)
}

// checkConstraints verifies a compiled rule's constraint set against a
// binding. The rule's equalities are read through its unification classes:
// every bound symbol must agree with the first bound member of its class, so
// an equality stated through a destination-only symbol still relates the
// source symbols it joins. Of the other constraints only the stated ones are
// checked (the closure's congruence variants re-express value-side facts
// across relation instances, which a concrete checker must not take
// literally); their symbols resolve through the same classes.
func (m *Matcher) checkConstraints(cr *CompiledRule, b *binding) bool {
	if !agree(b.rels, cr.class, m.aliasEqual) || !agree(b.attrs, cr.class, m.attrsEquivalent) ||
		!agree(b.preds, cr.class, m.predsEquivalent) || !agree(b.funcs, cr.class, aggItemsEqual) {
		return false
	}
	for _, c := range cr.checks {
		switch c.kind {
		case constraint.SubAttrs:
			a1 := b.attrs[c.args[0]]
			if !a1.ok {
				continue
			}
			if c.ofRel {
				rel := b.rels[c.args[1]]
				if !rel.ok {
					continue
				}
				// Strict membership: SubAttrs decides WHICH side supplies the
				// values, so origin-based relocation would be unsound here
				// (two instances of one relation carry different rows).
				if !m.colsExactlyFrom(a1.v.cols, rel.v) {
					return false
				}
			} else if a2 := b.attrs[c.args[1]]; a2.ok {
				if !colsSubset(a1.v.cols, a2.v.cols) {
					return false
				}
			}
		case constraint.Unique, constraint.NotNull:
			rel, okRel := bound(b.rels, cr.class, c.args[0])
			a, okAttr := bound(b.attrs, cr.class, c.args[1])
			if okRel && okAttr {
				cols, ok := m.colsInPlan(a, rel)
				if !ok {
					return false
				}
				if c.kind == constraint.Unique && !plan.UniqueOn(rel, cols, m.Schema) ||
					c.kind == constraint.NotNull && !plan.NotNullOn(rel, cols, m.Schema) {
					return false
				}
			}
		case constraint.RefAttrs:
			r1, ok1 := bound(b.rels, cr.class, c.args[0])
			a1, ok2 := bound(b.attrs, cr.class, c.args[1])
			r2, ok3 := bound(b.rels, cr.class, c.args[2])
			a2, ok4 := bound(b.attrs, cr.class, c.args[3])
			if ok1 && ok2 && ok3 && ok4 {
				c1, okA := m.colsInPlan(a1, r1)
				c2, okB := m.colsInPlan(a2, r2)
				if !okA || !okB || !plan.RefHolds(r1, c1, r2, c2, m.Schema) {
					return false
				}
			}
		}
	}
	return true
}

// agree reports whether every bound slot is equivalent to the first bound
// member of its class.
func agree[V any](s []slot[V], class [][]int, equiv func(a, b V) bool) bool {
	for i := range s {
		if !s[i].ok {
			continue
		}
		for _, f := range class[i] {
			if s[f].ok {
				if f != i && !equiv(s[f].v, s[i].v) {
					return false
				}
				break
			}
		}
	}
	return true
}

// bound returns the binding of slot i, or else that of the first bound member
// of its class; a slot of -1 (a symbol the rule never binds there) is unbound.
func bound[V any](s []slot[V], class [][]int, i int) (V, bool) {
	if i >= 0 {
		if s[i].ok {
			return s[i].v, true
		}
		for _, f := range class[i] {
			if s[f].ok {
				return s[f].v, true
			}
		}
	}
	var zero V
	return zero, false
}

// colsInPlan maps an attribute binding into a relation's output columns:
// exact matches pass through; otherwise columns are relocated by base-table
// origin (the constraint closure propagates Unique/NotNull/SubAttrs across
// RelEq-equal relation instances whose aliases differ). ok is false when a
// column belongs to neither. The result is a.cols itself when every column
// passes through, and lives in the attempt's column arena otherwise.
func (m *Matcher) colsInPlan(a attrsBinding, p plan.Node) ([]plan.ColRef, bool) {
	start := len(m.cols)
	out := m.outCols(p)
	if colsSubset(a.cols, out) {
		m.cols = m.cols[:start]
		return a.cols, true
	}
	for _, c := range a.cols {
		if slices.Contains(out, c) {
			m.cols = append(m.cols, c)
			continue
		}
		t1, col1, ok1 := plan.Origin(a.owner, c)
		if !ok1 {
			return nil, false
		}
		found := false
		for _, oc := range out {
			t2, col2, ok2 := plan.Origin(p, oc)
			if ok2 && t1 == t2 && col1 == col2 {
				m.cols = append(m.cols, oc)
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return m.cols[start+len(out) : len(m.cols) : len(m.cols)], true
}

// colsSubset reports whether every column of a is one of b.
func colsSubset(a, b []plan.ColRef) bool {
	for _, c := range a {
		if !slices.Contains(b, c) {
			return false
		}
	}
	return true
}

// colsExactlyFrom checks strict membership of every column in the subplan's
// outputs.
func (m *Matcher) colsExactlyFrom(cols []plan.ColRef, p plan.Node) bool {
	start := len(m.cols)
	ok := colsSubset(cols, m.outCols(p))
	m.cols = m.cols[:start]
	return ok
}

// outCols appends p's output columns to the column arena and returns them.
func (m *Matcher) outCols(p plan.Node) []plan.ColRef {
	start := len(m.cols)
	m.cols = plan.AppendOutCols(m.cols, p)
	return m.cols[start:len(m.cols):len(m.cols)]
}
