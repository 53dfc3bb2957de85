// Package spes implements a SPES-style SQL equivalence verifier (§5.2):
// a rule's symbolic templates are concretized into ordinary plans over a
// generated schema, and equivalence is proven by normalizing both plans into
// a canonical algebraic form and checking isomorphism.
//
// The capability profile mirrors Table 6 of the paper: Aggregation and UNION
// are supported, integrity constraints are NOT consulted, and plans with
// different multisets of input tables are rejected outright.
package spes

import (
	"fmt"
	"sort"

	"wetune/internal/constraint"
	"wetune/internal/plan"
	"wetune/internal/sql"
	"wetune/internal/template"
)

// Concretized carries a template instantiated over generated names.
type Concretized struct {
	Plan   plan.Node
	Schema *sql.Schema
	// Refs records every referential assumption (RefAttrs) of the rule,
	// including those that cannot be declared as schema foreign keys because
	// the target column is not unique. Consumers that generate concrete data
	// (the differential-testing oracle) must keep these closed: every
	// non-NULL child value must appear in the parent column.
	Refs []Ref
}

// Ref is one referential assumption between concretized columns.
type Ref struct {
	ChildTable, ChildColumn   string
	ParentTable, ParentColumn string
}

// Concretize instantiates both templates of a rule over concrete table and
// column names following the three steps of §5.2: symbols in the same
// equivalence class share a name; attributes are qualified by their owning
// relation (SubAttrs); and the schema is constructed from the attribute
// usage. Integrity constraints implied by Unique / NotNull / RefAttrs are
// recorded in the schema (the probing queries of §7 need them; the SPES
// verifier itself ignores them). Either plan failing plan.Check is an error,
// so an ill-typed concretisation is neither proved nor executed.
func Concretize(src, dest *template.Node, cs *constraint.Set) (*Concretized, *Concretized, error) {
	c := &concretizer{
		cl:       constraint.Closure(cs),
		u:        constraint.Unify(cs),
		attrCols: map[template.Sym]string{},
		relTabs:  map[template.Sym]string{},
		schema:   sql.NewSchema(),
	}
	c.assignNames(src, dest)
	c.buildSchema(src, dest)
	sp, err := c.build(src, map[template.Sym]int{})
	if err != nil {
		return nil, nil, err
	}
	dp, err := c.build(dest, map[template.Sym]int{})
	if err != nil {
		return nil, nil, err
	}
	if err := c.schema.Validate(); err != nil {
		return nil, nil, fmt.Errorf("spes: generated schema invalid: %w", err)
	}
	if _, err := plan.Check(nil, sp, c.schema); err != nil {
		return nil, nil, fmt.Errorf("spes: concretised source: %w", err)
	}
	if _, err := plan.Check(nil, dp, c.schema); err != nil {
		return nil, nil, fmt.Errorf("spes: concretised destination: %w", err)
	}
	refs := c.collectRefs()
	return &Concretized{Plan: sp, Schema: c.schema, Refs: refs},
		&Concretized{Plan: dp, Schema: c.schema, Refs: refs}, nil
}

// collectRefs lists every RefAttrs assumption whose child and parent columns
// both materialized in the generated schema.
func (c *concretizer) collectRefs() []Ref {
	var out []Ref
	for _, rc := range c.cl.ByKind(constraint.RefAttrs) {
		child, childCol := c.relTabs[c.u.Rep(rc.Syms[0])], c.attrCols[c.u.Rep(rc.Syms[1])]
		parent, parentCol := c.relTabs[c.u.Rep(rc.Syms[2])], c.attrCols[c.u.Rep(rc.Syms[3])]
		ct, ok1 := c.schema.Table(child)
		pt, ok2 := c.schema.Table(parent)
		if !ok1 || !ok2 {
			continue
		}
		if _, ok := ct.Column(childCol); !ok {
			continue
		}
		if _, ok := pt.Column(parentCol); !ok {
			continue
		}
		out = append(out, Ref{
			ChildTable: child, ChildColumn: childCol,
			ParentTable: parent, ParentColumn: parentCol,
		})
	}
	return out
}

type concretizer struct {
	cl *constraint.Set
	u  constraint.Unification

	relTabs  map[template.Sym]string // rep rel sym -> table name
	attrCols map[template.Sym]string // rep attrs sym -> column name
	schema   *sql.Schema
}

func (c *concretizer) assignNames(src, dest *template.Node) {
	for _, t := range []*template.Node{src, dest} {
		for _, s := range t.Symbols() {
			switch s.Kind {
			case template.KRel:
				r := c.u.Rep(s)
				if _, ok := c.relTabs[r]; !ok {
					c.relTabs[r] = fmt.Sprintf("t%d", r.ID)
				}
			case template.KAttrs:
				a := c.u.Rep(s)
				if _, ok := c.attrCols[a]; !ok {
					c.attrCols[a] = fmt.Sprintf("c%d", a.ID)
				}
			}
		}
	}
}

// colsFor expands an attribute-list symbol into its concrete column set: its
// own column plus the columns of every attribute list contained in it via
// SubAttrs(b, a). This preserves the subset semantics through concretization
// (a projection on `a` must keep the columns that any contained list reads).
func (c *concretizer) colsFor(a template.Sym) []string {
	aRep := c.u.Rep(a)
	set := map[string]bool{c.attrCols[aRep]: true}
	for _, sc := range c.cl.ByKind(constraint.SubAttrs) {
		if sc.Syms[1].Kind == template.KAttrs && c.u.Rep(sc.Syms[1]) == aRep {
			set[c.attrCols[c.u.Rep(sc.Syms[0])]] = true
		}
	}
	out := make([]string, 0, len(set))
	for col := range set {
		if col != "" {
			out = append(out, col)
		}
	}
	sort.Strings(out)
	return out
}

// ownerOf resolves the relation that owns an attribute list, via
// SubAttrs(a, a_r) in the closed constraint set. Defaults to the first
// relation when unconstrained (SPES's concretization must pick something).
func (c *concretizer) ownerOf(a template.Sym, fallback template.Sym) template.Sym {
	if sources := c.u.Sources(a); len(sources) > 0 {
		return sources[0]
	}
	return c.u.Rep(fallback)
}

// buildSchema declares one table per relation class, with a column per
// attribute class owned by it plus a filler column, and integrity
// constraints derived from Unique / NotNull / RefAttrs.
func (c *concretizer) buildSchema(src, dest *template.Node) {
	tableCols := map[template.Sym][]template.Sym{} // rel rep -> attr reps
	seen := map[[2]template.Sym]bool{}
	addCol := func(r, a template.Sym) {
		key := [2]template.Sym{r, a}
		if !seen[key] {
			seen[key] = true
			tableCols[r] = append(tableCols[r], a)
		}
	}
	for _, t := range []*template.Node{src, dest} {
		var walkOwn func(n *template.Node)
		walkOwn = func(n *template.Node) {
			switch n.Op {
			case template.OpProj, template.OpInSub:
				addCol(c.ownerOf(n.Attrs, c.firstRel(n.Children[0])), c.u.Rep(n.Attrs))
			case template.OpSel:
				addCol(c.ownerOf(n.Attrs, c.firstRel(n.Children[0])), c.u.Rep(n.Attrs))
			case template.OpIJoin, template.OpLJoin, template.OpRJoin:
				addCol(c.ownerOf(n.Attrs, c.firstRel(n.Children[0])), c.u.Rep(n.Attrs))
				addCol(c.ownerOf(n.Attrs2, c.firstRel(n.Children[1])), c.u.Rep(n.Attrs2))
			case template.OpAgg:
				owner := c.ownerOf(n.Attrs, c.firstRel(n.Children[0]))
				addCol(owner, c.u.Rep(n.Attrs))
				addCol(c.ownerOf(n.Attrs2, owner), c.u.Rep(n.Attrs2))
			}
			for _, ch := range n.Children {
				walkOwn(ch)
			}
		}
		walkOwn(t)
	}
	// Integrity constraint lookups.
	unique := map[[2]template.Sym]bool{}
	notNull := map[[2]template.Sym]bool{}
	for _, uc := range c.cl.ByKind(constraint.Unique) {
		unique[[2]template.Sym{c.u.Rep(uc.Syms[0]), c.u.Rep(uc.Syms[1])}] = true
	}
	for _, nc := range c.cl.ByKind(constraint.NotNull) {
		notNull[[2]template.Sym{c.u.Rep(nc.Syms[0]), c.u.Rep(nc.Syms[1])}] = true
	}
	for rel, tab := range c.relTabs {
		def := &sql.TableDef{Name: tab}
		for _, a := range tableCols[rel] {
			col := sql.Column{Name: c.attrCols[a], Type: sql.TInt}
			if notNull[[2]template.Sym{rel, a}] {
				col.NotNull = true
			}
			def.Columns = append(def.Columns, col)
			if unique[[2]template.Sym{rel, a}] {
				def.Uniques = append(def.Uniques, []string{col.Name})
			}
		}
		// Filler column so every table has at least one column.
		def.Columns = append(def.Columns, sql.Column{Name: fmt.Sprintf("f_%s", tab), Type: sql.TInt})
		sort.Slice(def.Columns, func(i, j int) bool { return def.Columns[i].Name < def.Columns[j].Name })
		c.schema.AddTable(def)
	}
	// Foreign keys from RefAttrs (target must be unique to be declarable).
	for _, rc := range c.cl.ByKind(constraint.RefAttrs) {
		r1, a1 := c.u.Rep(rc.Syms[0]), c.u.Rep(rc.Syms[1])
		r2, a2 := c.u.Rep(rc.Syms[2]), c.u.Rep(rc.Syms[3])
		t1, ok1 := c.schema.Table(c.relTabs[r1])
		t2ok := unique[[2]template.Sym{r2, a2}]
		if !ok1 || !t2ok || c.relTabs[r2] == "" {
			continue
		}
		col1, col2 := c.attrCols[a1], c.attrCols[a2]
		if _, ok := t1.Column(col1); !ok {
			continue
		}
		t1.ForeignKeys = append(t1.ForeignKeys, sql.ForeignKey{
			Columns: []string{col1}, RefTable: c.relTabs[r2], RefColumns: []string{col2},
		})
	}
}

func (c *concretizer) firstRel(n *template.Node) template.Sym {
	rels := n.RelSyms()
	if len(rels) == 0 {
		return template.Sym{Kind: template.KRel}
	}
	return c.u.Rep(rels[0])
}

// build lowers a template into a concrete plan. aliasCount disambiguates
// repeated scans of the same table.
func (c *concretizer) build(n *template.Node, aliasCount map[template.Sym]int) (plan.Node, error) {
	switch n.Op {
	case template.OpInput:
		r := c.u.Rep(n.Rel)
		tab := c.relTabs[r]
		aliasCount[r]++
		alias := tab
		if aliasCount[r] > 1 {
			alias = fmt.Sprintf("%s_%d", tab, aliasCount[r])
		}
		return plan.NewScan(c.schema, tab, alias)
	case template.OpProj:
		in, err := c.build(n.Children[0], aliasCount)
		if err != nil {
			return nil, err
		}
		var items []plan.ProjItem
		for _, name := range c.colsFor(n.Attrs) {
			col, err := c.colRefNamed(name, in)
			if err != nil {
				continue
			}
			items = append(items, plan.ProjItem{Expr: &sql.ColumnRef{Table: col.Table, Column: col.Column}})
		}
		if len(items) == 0 {
			col, err := c.colRefFor(n.Attrs, in)
			if err != nil {
				return nil, err
			}
			items = []plan.ProjItem{{Expr: &sql.ColumnRef{Table: col.Table, Column: col.Column}}}
		}
		return &plan.Proj{Items: items, In: in}, nil
	case template.OpSel:
		in, err := c.build(n.Children[0], aliasCount)
		if err != nil {
			return nil, err
		}
		col, err := c.colRefFor(n.Attrs, in)
		if err != nil {
			return nil, err
		}
		pred := c.u.Rep(n.Pred)
		// Predicate symbols concretize to an opaque comparison against a
		// per-symbol marker value, like SPES's user-defined functions.
		return &plan.Sel{Pred: &sql.BinaryExpr{
			Op: "=",
			L:  &sql.ColumnRef{Table: col.Table, Column: col.Column},
			R:  &sql.Literal{Val: sql.NewInt(int64(1000 + pred.ID))},
		}, In: in}, nil
	case template.OpInSub:
		in, err := c.build(n.Children[0], aliasCount)
		if err != nil {
			return nil, err
		}
		sub, err := c.build(n.Children[1], aliasCount)
		if err != nil {
			return nil, err
		}
		col, err := c.colRefFor(n.Attrs, in)
		if err != nil {
			return nil, err
		}
		// The subquery side must project exactly the compared columns; wrap
		// non-projection subplans in a star-preserving projection of their
		// first column.
		if len(sub.OutCols()) != 1 {
			first := sub.OutCols()[0]
			sub = &plan.Proj{Items: []plan.ProjItem{{Expr: &sql.ColumnRef{Table: first.Table, Column: first.Column}}}, In: sub}
		}
		return &plan.InSub{Cols: []plan.ColRef{col}, In: in, Sub: sub}, nil
	case template.OpIJoin, template.OpLJoin, template.OpRJoin:
		l, err := c.build(n.Children[0], aliasCount)
		if err != nil {
			return nil, err
		}
		r, err := c.build(n.Children[1], aliasCount)
		if err != nil {
			return nil, err
		}
		lc, err := c.colRefFor(n.Attrs, l)
		if err != nil {
			return nil, err
		}
		rc, err := c.colRefFor(n.Attrs2, r)
		if err != nil {
			return nil, err
		}
		kind := sql.InnerJoin
		if n.Op == template.OpLJoin {
			kind = sql.LeftJoin
		} else if n.Op == template.OpRJoin {
			kind = sql.RightJoin
		}
		return &plan.Join{
			JoinKind: kind,
			On: &sql.BinaryExpr{Op: "=",
				L: &sql.ColumnRef{Table: lc.Table, Column: lc.Column},
				R: &sql.ColumnRef{Table: rc.Table, Column: rc.Column}},
			L: l, R: r,
		}, nil
	case template.OpDedup:
		in, err := c.build(n.Children[0], aliasCount)
		if err != nil {
			return nil, err
		}
		return &plan.Dedup{In: in}, nil
	case template.OpAgg:
		in, err := c.build(n.Children[0], aliasCount)
		if err != nil {
			return nil, err
		}
		g, err := c.colRefFor(n.Attrs, in)
		if err != nil {
			return nil, err
		}
		ag, err := c.colRefFor(n.Attrs2, in)
		if err != nil {
			return nil, err
		}
		agg := &plan.Agg{
			GroupBy: []plan.ColRef{g},
			Items: []plan.AggItem{{
				Func: "SUM",
				Arg:  &sql.ColumnRef{Table: ag.Table, Column: ag.Column},
			}},
			In: in,
		}
		// The HAVING predicate symbol concretizes like Sel predicates do,
		// reading the group-by attribute.
		pred := c.u.Rep(n.Pred)
		agg.Having = &sql.BinaryExpr{
			Op: "=",
			L:  &sql.ColumnRef{Table: g.Table, Column: g.Column},
			R:  &sql.Literal{Val: sql.NewInt(int64(1000 + pred.ID))},
		}
		return agg, nil
	case template.OpUnion:
		l, err := c.build(n.Children[0], aliasCount)
		if err != nil {
			return nil, err
		}
		r, err := c.build(n.Children[1], aliasCount)
		if err != nil {
			return nil, err
		}
		return &plan.Union{All: true, L: l, R: r}, nil
	}
	return nil, fmt.Errorf("spes: cannot concretize operator %v", n.Op)
}

// colRefFor finds the output column of `in` that realizes attribute symbol a.
func (c *concretizer) colRefFor(a template.Sym, in plan.Node) (plan.ColRef, error) {
	return c.colRefNamed(c.attrCols[c.u.Rep(a)], in)
}

func (c *concretizer) colRefNamed(name string, in plan.Node) (plan.ColRef, error) {
	for _, col := range in.OutCols() {
		if col.Column == name {
			return col, nil
		}
	}
	// The attribute does not appear in the subplan's outputs (e.g. it was
	// projected away); fall back to the first output column.
	outs := in.OutCols()
	if len(outs) == 0 {
		return plan.ColRef{}, fmt.Errorf("spes: no column %s available", name)
	}
	return outs[0], nil
}
