// Package rewrite applies WeTune rules to concrete query plans (§6, §7): it
// matches a rule's source template against plan fragments, checks the rule's
// constraints against schema integrity metadata (its equalities through the
// rule's unification classes), instantiates the destination template, and
// runs a cost-guided best-first search over the rewritten plans. It also
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

// binding maps template symbols to concrete plan fragments.
type binding struct {
	rels  map[template.Sym]plan.Node
	attrs map[template.Sym]attrsBinding
	preds map[template.Sym]predBinding
	funcs map[template.Sym][]plan.AggItem
}

func newBinding() *binding {
	return &binding{
		rels:  map[template.Sym]plan.Node{},
		attrs: map[template.Sym]attrsBinding{},
		preds: map[template.Sym]predBinding{},
		funcs: map[template.Sym][]plan.AggItem{},
	}
}

func (b *binding) clone() *binding {
	nb := newBinding()
	for k, v := range b.rels {
		nb.rels[k] = v
	}
	for k, v := range b.attrs {
		nb.attrs[k] = v
	}
	for k, v := range b.preds {
		nb.preds[k] = v
	}
	for k, v := range b.funcs {
		nb.funcs[k] = v
	}
	return nb
}

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

// match attempts to bind tpl against n, extending b. Returns false without
// mutating b's semantics on failure (b may contain partial bindings; callers
// pass a clone).
func (m *Matcher) match(tpl *template.Node, n plan.Node, b *binding) bool {
	switch tpl.Op {
	case template.OpInput:
		if prev, ok := b.rels[tpl.Rel]; ok {
			return m.aliasEqual(prev, n)
		}
		b.rels[tpl.Rel] = n
		return true
	case template.OpProj:
		p, ok := n.(*plan.Proj)
		if !ok {
			return false
		}
		cols, plain := p.PlainCols()
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
		cols := plan.FreeColumns(s.Pred, m.Schema)
		if len(cols) == 0 {
			// Predicates over constants only still match with the input's
			// first column standing in for the attribute list.
			if len(s.In.OutCols()) == 0 {
				return false
			}
			cols = s.In.OutCols()[:1]
		}
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
		lc, rc, ok := j.EquiCols()
		if !ok {
			return false
		}
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
		var aggCols []plan.ColRef
		for _, it := range a.Items {
			if cr, isCol := it.Arg.(*sql.ColumnRef); isCol {
				aggCols = append(aggCols, plan.ColRef{Table: cr.Table, Column: cr.Column})
			}
		}
		if len(aggCols) == 0 {
			aggCols = a.GroupBy
		}
		if !m.bindAttrs(tpl.Attrs2, aggCols, a.In, b) {
			return false
		}
		if prev, ok := b.funcs[tpl.Func]; ok {
			if !aggItemsEqual(prev, a.Items) {
				return false
			}
		} else {
			b.funcs[tpl.Func] = a.Items
		}
		having := a.Having
		if having == nil {
			having = &sql.Literal{Val: sql.NewBool(true)}
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
	if prev, ok := b.attrs[sym]; ok {
		return m.attrsEquivalent(prev, attrsBinding{cols: cols, owner: owner})
	}
	b.attrs[sym] = attrsBinding{cols: cols, owner: owner}
	return true
}

func (m *Matcher) bindPred(sym template.Sym, pred sql.Expr, owner plan.Node, b *binding) bool {
	nb := predBinding{expr: pred, owner: owner}
	if prev, ok := b.preds[sym]; ok {
		return m.predsEquivalent(prev, nb)
	}
	b.preds[sym] = nb
	return true
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
	cls := cr.classes
	if !agree(b.rels, cls, m.aliasEqual) || !agree(b.attrs, cls, m.attrsEquivalent) ||
		!agree(b.preds, cls, m.predsEquivalent) || !agree(b.funcs, cls, aggItemsEqual) {
		return false
	}
	for _, c := range cr.Rule.Constraints.Items() {
		switch c.Kind {
		case constraint.SubAttrs:
			a1, ok := b.attrs[c.Syms[0]]
			if !ok {
				continue
			}
			if c.Syms[1].Kind == template.KAttrsOf {
				rel, okRel := b.rels[template.Sym{Kind: template.KRel, ID: c.Syms[1].ID}]
				if !okRel {
					continue
				}
				// Strict membership: SubAttrs decides WHICH side supplies the
				// values, so origin-based relocation would be unsound here
				// (two instances of one relation carry different rows).
				if !colsExactlyFrom(a1.cols, rel) {
					return false
				}
			} else if a2, ok2 := b.attrs[c.Syms[1]]; ok2 {
				if !colsSubset(a1.cols, a2.cols) {
					return false
				}
			}
		case constraint.Unique:
			rel, okRel := bound(b.rels, cls, c.Syms[0])
			a, okAttr := bound(b.attrs, cls, c.Syms[1])
			if okRel && okAttr {
				cols, ok := m.colsInPlan(a, rel)
				if !ok || !plan.UniqueOn(rel, cols, m.Schema) {
					return false
				}
			}
		case constraint.NotNull:
			rel, okRel := bound(b.rels, cls, c.Syms[0])
			a, okAttr := bound(b.attrs, cls, c.Syms[1])
			if okRel && okAttr {
				cols, ok := m.colsInPlan(a, rel)
				if !ok || !plan.NotNullOn(rel, cols, m.Schema) {
					return false
				}
			}
		case constraint.RefAttrs:
			r1, ok1 := bound(b.rels, cls, c.Syms[0])
			a1, ok2 := bound(b.attrs, cls, c.Syms[1])
			r2, ok3 := bound(b.rels, cls, c.Syms[2])
			a2, ok4 := bound(b.attrs, cls, c.Syms[3])
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

// agree reports whether every symbol bound in m is equivalent to the first
// bound member of its class.
func agree[V any](m map[template.Sym]V, cls constraint.Unification, equiv func(a, b V) bool) bool {
	for s, v := range m {
		for _, f := range cls.Members(s) {
			if w, ok := m[f]; ok {
				if f != s && !equiv(w, v) {
					return false
				}
				break
			}
		}
	}
	return true
}

// bound returns sym's binding in m, or else that of the first bound member
// of its class.
func bound[V any](m map[template.Sym]V, cls constraint.Unification, sym template.Sym) (V, bool) {
	if v, ok := m[sym]; ok {
		return v, true
	}
	for _, s := range cls.Members(sym) {
		if v, ok := m[s]; ok {
			return v, true
		}
	}
	var zero V
	return zero, false
}

// colsInPlan maps an attribute binding into a relation's output columns:
// exact matches pass through; otherwise columns are relocated by base-table
// origin (the constraint closure propagates Unique/NotNull/SubAttrs across
// RelEq-equal relation instances whose aliases differ). ok is false when a
// column belongs to neither.
func (m *Matcher) colsInPlan(a attrsBinding, p plan.Node) ([]plan.ColRef, bool) {
	out := p.OutCols()
	exact := map[plan.ColRef]bool{}
	for _, c := range out {
		exact[c] = true
	}
	mapped := make([]plan.ColRef, len(a.cols))
	for i, c := range a.cols {
		if exact[c] {
			mapped[i] = c
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
				mapped[i] = oc
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return mapped, true
}

func colsSubset(a, b []plan.ColRef) bool {
	set := map[plan.ColRef]bool{}
	for _, c := range b {
		set[c] = true
	}
	for _, c := range a {
		if !set[c] {
			return false
		}
	}
	return true
}

// colsExactlyFrom checks strict membership of every column in the subplan's
// outputs.
func colsExactlyFrom(cols []plan.ColRef, p plan.Node) bool {
	out := map[plan.ColRef]bool{}
	for _, c := range p.OutCols() {
		out[c] = true
	}
	for _, c := range cols {
		if !out[c] {
			return false
		}
	}
	return true
}
