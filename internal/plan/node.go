// Package plan defines WeTune's concrete logical query plans: the operators
// of Table 2 in the paper (Input, Projection, Selection, In-Sub Selection,
// Inner/Left/Right Join, Deduplication) plus the Aggregation, Union, Sort and
// Limit operators needed by the SPES extension (§5.2) and by real workloads.
// It also provides a builder from the SQL AST and a printer back to SQL.
package plan

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"wetune/internal/sql"
)

// Kind identifies a plan operator.
type Kind int

// Plan operator kinds.
const (
	KScan Kind = iota
	KProj
	KSel
	KInSub
	KJoin
	KDedup
	KAgg
	KUnion
	KSort
	KLimit
	KDerived // alias wrapper for derived tables
)

func (k Kind) String() string {
	switch k {
	case KScan:
		return "Input"
	case KProj:
		return "Proj"
	case KSel:
		return "Sel"
	case KInSub:
		return "InSub"
	case KJoin:
		return "Join"
	case KDedup:
		return "Dedup"
	case KAgg:
		return "Agg"
	case KUnion:
		return "Union"
	case KSort:
		return "Sort"
	case KLimit:
		return "Limit"
	case KDerived:
		return "Derived"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ColRef names an output column by its binding (table alias) and column name.
type ColRef struct {
	Table  string
	Column string
}

func (c ColRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// Node is a logical plan operator.
type Node interface {
	Kind() Kind
	// Children returns the inputs in a new slice the caller may modify. Code
	// that only reads them uses NumChildren/Child, which do not allocate.
	Children() []Node
	// WithChildren returns a shallow copy with the children replaced.
	WithChildren(ch []Node) Node
	// OutCols lists the output columns with their binding qualifiers.
	OutCols() []ColRef
}

// Transform returns a deep copy of n — node structs, column slices and, through
// expr, expressions — with every table binding (of Scan and Derived nodes and
// of every ColRef) passed through binding and every embedded expression through
// expr. It is the one traversal over "every ColRef and every Expr of every
// node"; Clone and the rewriter's alias renaming are calls into it.
func Transform(n Node, binding func(string) string, expr func(sql.Expr) sql.Expr) Node {
	col := func(c ColRef) ColRef { return ColRef{Table: binding(c.Table), Column: c.Column} }
	cols := func(cs []ColRef) []ColRef {
		out := make([]ColRef, len(cs))
		for i, c := range cs {
			out[i] = col(c)
		}
		return out
	}
	in := func(i int) Node { return Transform(Child(n, i), binding, expr) }
	switch x := n.(type) {
	case nil:
		return nil
	case *Scan:
		return &Scan{Table: x.Table, Binding: binding(x.Binding), Cols: cols(x.Cols)}
	case *Derived:
		return &Derived{Binding: binding(x.Binding), In: in(0)}
	case *Proj:
		items := make([]ProjItem, len(x.Items))
		for i, it := range x.Items {
			items[i] = ProjItem{Expr: expr(it.Expr), Alias: it.Alias}
		}
		return &Proj{Items: items, In: in(0)}
	case *Sel:
		return &Sel{Pred: expr(x.Pred), In: in(0)}
	case *InSub:
		return &InSub{Cols: cols(x.Cols), In: in(0), Sub: in(1)}
	case *Join:
		return &Join{JoinKind: x.JoinKind, On: expr(x.On), L: in(0), R: in(1)}
	case *Dedup:
		return &Dedup{In: in(0)}
	case *Agg:
		items := make([]AggItem, len(x.Items))
		for i, it := range x.Items {
			items[i] = it
			items[i].Arg = expr(it.Arg)
		}
		return &Agg{GroupBy: cols(x.GroupBy), Items: items, Having: expr(x.Having), In: in(0)}
	case *Union:
		return &Union{All: x.All, L: in(0), R: in(1)}
	case *Sort:
		keys := make([]SortKey, len(x.Keys))
		for i, k := range x.Keys {
			keys[i] = SortKey{Col: col(k.Col), Desc: k.Desc}
		}
		return &Sort{Keys: keys, In: in(0)}
	case *Limit:
		return &Limit{N: x.N, In: in(0)}
	}
	panic(fmt.Sprintf("plan: Transform cannot copy %T", n))
}

// Clone returns a deep copy of a plan: node structs, column slices, and every
// embedded expression are copied, so mutating the clone — including literal
// values reached through its predicates — cannot affect the original. Rule
// application shares untouched subtrees between the input plan and its
// rewrites; callers that mutate plans (e.g. counterexample shrinking) must
// clone first.
func Clone(n Node) Node {
	return Transform(n, func(b string) string { return b }, sql.CloneExpr)
}

// AppendFreeColumns appends to dst the free column references of e
// (sql.MapFreeColumns: its own at any depth plus the correlated references of
// embedded statements) that dst does not hold yet, in first-appearance order.
// From an empty dst it is the attribute list of a selection on e and the set a
// rewrite must keep resolvable.
func AppendFreeColumns(dst []ColRef, e sql.Expr, schema *sql.Schema) []ColRef {
	start := len(dst)
	sql.FreeColumns(e, schema, func(cr *sql.ColumnRef) {
		if c := (ColRef{Table: cr.Table, Column: cr.Column}); !slices.Contains(dst[start:], c) {
			dst = append(dst, c)
		}
	})
	return dst
}

// SubstituteCols rewrites the free column references of e positionally
// (from[i] -> to[i]); lists of different lengths substitute nothing.
func SubstituteCols(e sql.Expr, schema *sql.Schema, from, to []ColRef) sql.Expr {
	if len(from) != len(to) {
		return e
	}
	return sql.MapFreeColumns(e, schema, func(c *sql.ColumnRef) *sql.ColumnRef {
		if i := slices.Index(from, ColRef{Table: c.Table, Column: c.Column}); i >= 0 {
			return &sql.ColumnRef{Table: to[i].Table, Column: to[i].Column}
		}
		return c
	})
}

// Scan reads a base table (the paper's Input operator).
type Scan struct {
	Table   string
	Binding string // alias; equals Table when unaliased
	Cols    []ColRef
}

// NewScan builds a Scan for table with the given binding, resolving columns
// against the schema.
func NewScan(s *sql.Schema, table, binding string) (*Scan, error) {
	def, err := tableDef(s, table)
	if err != nil {
		return nil, err
	}
	return newScan(def, table, binding, make([]ColRef, len(def.Columns))), nil
}

func tableDef(s *sql.Schema, table string) (*sql.TableDef, error) {
	def, ok := s.Table(table)
	if !ok {
		return nil, fmt.Errorf("plan: unknown table %q", table)
	}
	return def, nil
}

// newScan writes the columns of def into cols, one per column, and returns
// the Scan over them.
func newScan(def *sql.TableDef, table, binding string, cols []ColRef) *Scan {
	if binding == "" {
		binding = table
	}
	for i, c := range def.Columns {
		cols[i] = ColRef{Table: binding, Column: c.Name}
	}
	return &Scan{Table: table, Binding: binding, Cols: cols}
}

func (s *Scan) Kind() Kind                  { return KScan }
func (s *Scan) Children() []Node            { return nil }
func (s *Scan) WithChildren(ch []Node) Node { cp := *s; return &cp }
func (s *Scan) OutCols() []ColRef           { return s.Cols }

// ProjItem is one projected expression with an output alias.
type ProjItem struct {
	Expr  sql.Expr
	Alias string
}

// Proj projects its input onto a list of expressions. When every expression
// is a plain column reference the node corresponds to the paper's
// Proj_a operator and participates in template matching.
type Proj struct {
	Items []ProjItem
	In    Node
}

func (p *Proj) Kind() Kind       { return KProj }
func (p *Proj) Children() []Node { return []Node{p.In} }
func (p *Proj) WithChildren(ch []Node) Node {
	cp := *p
	cp.In = ch[0]
	return &cp
}

func (p *Proj) OutCols() []ColRef { return AppendOutCols(make([]ColRef, 0, len(p.Items)), p) }

// projCol is the output column of the i-th item of a projection: its alias,
// else the column it reads (qualifier kept), else "expr<i>".
func projCol(it ProjItem, i int) ColRef {
	c, isCol := it.Expr.(*sql.ColumnRef)
	switch {
	case it.Alias != "":
		return ColRef{Column: it.Alias}
	case isCol:
		return ColRef{Table: c.Table, Column: c.Column}
	}
	return ColRef{Column: "expr" + strconv.Itoa(i)}
}

// AppendPlainCols appends to dst the projected column refs when every item is
// a bare column reference, the attribute list of the template operator
// Proj_a. ok is false, and dst comes back as it was given, otherwise. Aliases
// are not read: whether a renamed output matters is the caller's question.
func (p *Proj) AppendPlainCols(dst []ColRef) ([]ColRef, bool) {
	start := len(dst)
	for _, it := range p.Items {
		c, ok := it.Expr.(*sql.ColumnRef)
		if !ok {
			return dst[:start], false
		}
		dst = append(dst, ColRef{Table: c.Table, Column: c.Column})
	}
	return dst, true
}

// Sel filters its input by a predicate (the paper's Sel_{p,a}).
type Sel struct {
	Pred sql.Expr
	In   Node
}

func (s *Sel) Kind() Kind       { return KSel }
func (s *Sel) Children() []Node { return []Node{s.In} }
func (s *Sel) WithChildren(ch []Node) Node {
	cp := *s
	cp.In = ch[0]
	return &cp
}
func (s *Sel) OutCols() []ColRef { return s.In.OutCols() }

// InSub keeps left-input tuples whose values on Cols appear in the right
// input (the paper's InSub_a operator).
type InSub struct {
	Cols []ColRef
	In   Node // outer query side
	Sub  Node // subquery side
}

func (s *InSub) Kind() Kind       { return KInSub }
func (s *InSub) Children() []Node { return []Node{s.In, s.Sub} }
func (s *InSub) WithChildren(ch []Node) Node {
	cp := *s
	cp.In, cp.Sub = ch[0], ch[1]
	return &cp
}
func (s *InSub) OutCols() []ColRef { return s.In.OutCols() }

// JoinKind re-exports the AST join kinds for plans.
type JoinKind = sql.JoinKind

// Join is a binary join. On holds the full join condition; when it is a
// conjunction of column equalities EquiCols exposes the paired columns used
// by templates (IJoin/LJoin/RJoin_{al,ar}).
type Join struct {
	JoinKind JoinKind
	On       sql.Expr
	L, R     Node
}

func (j *Join) Kind() Kind       { return KJoin }
func (j *Join) Children() []Node { return []Node{j.L, j.R} }
func (j *Join) WithChildren(ch []Node) Node {
	cp := *j
	cp.L, cp.R = ch[0], ch[1]
	return &cp
}

func (j *Join) OutCols() []ColRef {
	return append(append([]ColRef{}, j.L.OutCols()...), j.R.OutCols()...)
}

// EquiCols splits the ON condition into aligned left/right column lists when
// it is a pure conjunction of equalities between one left and one right
// column. ok is false otherwise (including CROSS joins).
func (j *Join) EquiCols() (left, right []ColRef, ok bool) {
	cols, ok := j.AppendEquiCols(nil)
	if !ok {
		return nil, nil, false
	}
	k := len(cols) / 2
	return cols[:k:k], cols[k:], true
}

// AppendEquiCols is EquiCols into dst: it appends the k left columns and then
// the k aligned right columns, so the left list is the first half of what it
// appends. When the ON condition is not such a conjunction, ok is false and
// dst comes back as it was given.
func (j *Join) AppendEquiCols(dst []ColRef) ([]ColRef, bool) {
	if j.On == nil {
		return dst, false
	}
	start := len(dst)
	// The column lists live on the stack unless they outgrow it.
	var lbuf, rbuf [16]ColRef
	lcols, rcols := AppendOutCols(lbuf[:0], j.L), AppendOutCols(rbuf[:0], j.R)
	var conjBuf [8]sql.Expr
	var rightBuf [8]ColRef
	right := rightBuf[:0]
	for _, conj := range sql.AppendConjuncts(conjBuf[:0], j.On) {
		be, isBin := conj.(*sql.BinaryExpr)
		if !isBin || be.Op != "=" {
			return dst[:start], false
		}
		lc, lok := be.L.(*sql.ColumnRef)
		rc, rok := be.R.(*sql.ColumnRef)
		if !lok || !rok {
			return dst[:start], false
		}
		a := ColRef{Table: lc.Table, Column: lc.Column}
		b := ColRef{Table: rc.Table, Column: rc.Column}
		switch {
		case slices.Contains(lcols, a) && slices.Contains(rcols, b):
		case slices.Contains(lcols, b) && slices.Contains(rcols, a):
			a, b = b, a
		default:
			return dst[:start], false
		}
		dst = append(dst, a)
		right = append(right, b)
	}
	return append(dst, right...), len(right) > 0
}

// Dedup removes duplicate tuples (the paper's Dedup operator).
type Dedup struct {
	In Node
}

func (d *Dedup) Kind() Kind       { return KDedup }
func (d *Dedup) Children() []Node { return []Node{d.In} }
func (d *Dedup) WithChildren(ch []Node) Node {
	cp := *d
	cp.In = ch[0]
	return &cp
}
func (d *Dedup) OutCols() []ColRef { return d.In.OutCols() }

// AggItem is one aggregate output.
type AggItem struct {
	Func     string // COUNT, SUM, AVG, MIN, MAX
	Arg      sql.Expr
	Star     bool
	Distinct bool
	Alias    string
}

// Agg groups its input by GroupBy and computes aggregates; Having filters
// groups. Matches Agg_{a_group, a_agg, f, p} from §5.2.
type Agg struct {
	GroupBy []ColRef
	Items   []AggItem
	Having  sql.Expr
	In      Node
}

func (a *Agg) Kind() Kind       { return KAgg }
func (a *Agg) Children() []Node { return []Node{a.In} }
func (a *Agg) WithChildren(ch []Node) Node {
	cp := *a
	cp.In = ch[0]
	return &cp
}

func (a *Agg) OutCols() []ColRef {
	out := append([]ColRef{}, a.GroupBy...)
	for i, it := range a.Items {
		out = append(out, aggCol(it, i))
	}
	return out
}

// aggCol is the output column of the i-th aggregate: its alias, else the
// lower-case function name and i.
func aggCol(it AggItem, i int) ColRef {
	if it.Alias != "" {
		return ColRef{Column: it.Alias}
	}
	return ColRef{Column: fmt.Sprintf("%s%d", strings.ToLower(it.Func), i)}
}

// Union combines two inputs; without All duplicates are removed.
type Union struct {
	All  bool
	L, R Node
}

func (u *Union) Kind() Kind       { return KUnion }
func (u *Union) Children() []Node { return []Node{u.L, u.R} }
func (u *Union) WithChildren(ch []Node) Node {
	cp := *u
	cp.L, cp.R = ch[0], ch[1]
	return &cp
}
func (u *Union) OutCols() []ColRef { return u.L.OutCols() }

// SortKey is one ORDER BY key.
type SortKey struct {
	Col  ColRef
	Desc bool
}

// Sort orders its input.
type Sort struct {
	Keys []SortKey
	In   Node
}

func (s *Sort) Kind() Kind       { return KSort }
func (s *Sort) Children() []Node { return []Node{s.In} }
func (s *Sort) WithChildren(ch []Node) Node {
	cp := *s
	cp.In = ch[0]
	return &cp
}
func (s *Sort) OutCols() []ColRef { return s.In.OutCols() }

// Limit truncates its input to N rows.
type Limit struct {
	N  int64
	In Node
}

func (l *Limit) Kind() Kind       { return KLimit }
func (l *Limit) Children() []Node { return []Node{l.In} }
func (l *Limit) WithChildren(ch []Node) Node {
	cp := *l
	cp.In = ch[0]
	return &cp
}
func (l *Limit) OutCols() []ColRef { return l.In.OutCols() }

// Derived rebinds the output of a subquery to a new table alias, like
// `(SELECT ...) AS d`.
type Derived struct {
	Binding string
	In      Node
}

func (d *Derived) Kind() Kind       { return KDerived }
func (d *Derived) Children() []Node { return []Node{d.In} }
func (d *Derived) WithChildren(ch []Node) Node {
	cp := *d
	cp.In = ch[0]
	return &cp
}

func (d *Derived) OutCols() []ColRef {
	in := d.In.OutCols()
	out := make([]ColRef, len(in))
	for i, c := range in {
		out[i] = ColRef{Table: d.Binding, Column: c.Column}
	}
	return out
}

// AppendOutCols appends n's output columns — n.OutCols() — to dst. With
// scratch the caller owns, reading a plan's columns allocates nothing.
func AppendOutCols(dst []ColRef, n Node) []ColRef {
	switch x := n.(type) {
	case *Scan:
		return append(dst, x.Cols...)
	case *Proj:
		for i, it := range x.Items {
			dst = append(dst, projCol(it, i))
		}
		return dst
	case *Join:
		return AppendOutCols(AppendOutCols(dst, x.L), x.R)
	case *Agg:
		dst = append(dst, x.GroupBy...)
		for i, it := range x.Items {
			dst = append(dst, aggCol(it, i))
		}
		return dst
	case *Derived:
		start := len(dst)
		dst = AppendOutCols(dst, x.In)
		for i := start; i < len(dst); i++ {
			dst[i].Table = x.Binding
		}
		return dst
	case *Union:
		return AppendOutCols(dst, x.L)
	}
	// Sel, InSub, Dedup, Sort and Limit output their (first) input's columns.
	return AppendOutCols(dst, Child(n, 0))
}

// NumChildren and Child are Children() without the slice: NumChildren(n)
// inputs, Child(n, i) the i-th of them in Children() order, i in
// [0, NumChildren(n)). Every traversal on the rewrite path goes through them,
// because Children() heap-allocates its result on each call.
func NumChildren(n Node) int {
	_, _, k := inputs(n)
	return k
}

// Child returns the i-th input of n; see NumChildren.
func Child(n Node, i int) Node {
	first, second, _ := inputs(n)
	if i == 0 {
		return first
	}
	return second
}

// inputs returns the k (at most two) children of n.
func inputs(n Node) (first, second Node, k int) {
	switch x := n.(type) {
	case *Scan:
		return nil, nil, 0
	case *Proj:
		return x.In, nil, 1
	case *Sel:
		return x.In, nil, 1
	case *InSub:
		return x.In, x.Sub, 2
	case *Join:
		return x.L, x.R, 2
	case *Dedup:
		return x.In, nil, 1
	case *Agg:
		return x.In, nil, 1
	case *Union:
		return x.L, x.R, 2
	case *Sort:
		return x.In, nil, 1
	case *Limit:
		return x.In, nil, 1
	case *Derived:
		return x.In, nil, 1
	}
	panic(fmt.Sprintf("plan: no child access for %T", n))
}

// Walk visits n and all descendants in preorder.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	for i, k := 0, NumChildren(n); i < k; i++ {
		Walk(Child(n, i), fn)
	}
}

// OpCounts tallies operators by kind, the measure behind the paper's "q_dest
// does not have more operators of each type than q_src" heuristic (§4.3).
func OpCounts(n Node) map[Kind]int {
	counts := map[Kind]int{}
	Walk(n, func(m Node) bool {
		counts[m.Kind()]++
		return true
	})
	return counts
}

// NotMoreOpsThan reports whether a has at most as many operators of every
// kind as b (Scan/Input nodes excluded, as in the paper's template size).
func NotMoreOpsThan(a, b Node) bool {
	ca, cb := OpCounts(a), OpCounts(b)
	for k, n := range ca {
		if k == KScan || k == KDerived {
			continue
		}
		if n > cb[k] {
			return false
		}
	}
	return true
}

// Size counts operators excluding Scan/Derived nodes.
func Size(n Node) int {
	total := 0
	Walk(n, func(m Node) bool {
		if m.Kind() != KScan && m.Kind() != KDerived {
			total++
		}
		return true
	})
	return total
}

// Fingerprint returns a canonical string for structural plan equality.
func Fingerprint(n Node) string {
	var buf [256]byte
	return string(AppendFingerprint(buf[:0], n))
}

// AppendFingerprint appends the text Fingerprint returns for n to dst, so a
// caller that only compares or probes a map renders into scratch it owns.
func AppendFingerprint(dst []byte, n Node) []byte { return appendFingerprint(dst, n, nil) }

// AppendBindings appends to dst the distinct table bindings of n's Scan and
// Derived nodes in first-appearance (preorder) order.
func AppendBindings(dst []string, n Node) []string {
	binding, binds := "", false
	switch x := n.(type) {
	case *Scan:
		binding, binds = x.Binding, true
	case *Derived:
		binding, binds = x.Binding, true
	}
	if binds && !slices.Contains(dst, binding) {
		dst = append(dst, binding)
	}
	for i, k := 0, NumChildren(n); i < k; i++ {
		dst = AppendBindings(dst, Child(n, i))
	}
	return dst
}

// AppendAliasFingerprint is AppendFingerprint made insensitive to table
// aliases: a binding that is bindings[i] — pass AppendBindings(nil, n) — is
// written "b<i>" wherever the fingerprint names it, so two scans of one table
// under different aliases get equal bytes. Predicate expressions are written
// by sql.AppendExprPositional, CASE arms and the correlated references of
// embedded statements included.
func AppendAliasFingerprint(dst []byte, n Node, bindings []string) []byte {
	return appendFingerprint(dst, n, bindings)
}

func appendColRef(dst []byte, c ColRef, bindings []string) []byte {
	if c.Table != "" {
		dst = sql.AppendBinding(dst, c.Table, bindings)
		dst = append(dst, '.')
	}
	return append(dst, c.Column...)
}

func appendFingerprint(dst []byte, n Node, bindings []string) []byte {
	switch x := n.(type) {
	case *Scan:
		dst = append(dst, "Input("...)
		dst = append(dst, x.Table...)
		dst = append(dst, " as "...)
		dst = sql.AppendBinding(dst, x.Binding, bindings)
		return append(dst, ')')
	case *Proj:
		dst = append(dst, "Proj["...)
		for i, it := range x.Items {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = sql.AppendExprPositional(dst, it.Expr, bindings)
			if it.Alias != "" {
				dst = append(dst, " as "...)
				dst = append(dst, it.Alias...)
			}
		}
		dst = append(dst, "]("...)
		dst = appendFingerprint(dst, x.In, bindings)
	case *Sel:
		dst = append(dst, "Sel["...)
		dst = sql.AppendExprPositional(dst, x.Pred, bindings)
		dst = append(dst, "]("...)
		dst = appendFingerprint(dst, x.In, bindings)
	case *InSub:
		dst = append(dst, "InSub["...)
		for i, c := range x.Cols {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendColRef(dst, c, bindings)
		}
		dst = append(dst, "]("...)
		dst = appendFingerprint(dst, x.In, bindings)
		dst = append(dst, ',')
		dst = appendFingerprint(dst, x.Sub, bindings)
	case *Join:
		dst = append(dst, x.JoinKind.String()...)
		dst = append(dst, '[')
		if x.On != nil {
			dst = sql.AppendExprPositional(dst, x.On, bindings)
		}
		dst = append(dst, "]("...)
		dst = appendFingerprint(dst, x.L, bindings)
		dst = append(dst, ',')
		dst = appendFingerprint(dst, x.R, bindings)
	case *Dedup:
		dst = append(dst, "Dedup("...)
		dst = appendFingerprint(dst, x.In, bindings)
	case *Agg:
		dst = append(dst, "Agg["...)
		for i, g := range x.GroupBy {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendColRef(dst, g, bindings)
		}
		dst = append(dst, ';')
		for i, it := range x.Items {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, it.Func...)
			if it.Star {
				dst = append(dst, "(*)"...)
			} else if it.Arg != nil {
				dst = append(dst, '(')
				if it.Distinct {
					// COUNT(DISTINCT a) and COUNT(a) are different queries.
					dst = append(dst, "distinct "...)
				}
				dst = sql.AppendExprPositional(dst, it.Arg, bindings)
				dst = append(dst, ')')
			}
		}
		if x.Having != nil {
			dst = append(dst, ";having "...)
			dst = sql.AppendExprPositional(dst, x.Having, bindings)
		}
		dst = append(dst, "]("...)
		dst = appendFingerprint(dst, x.In, bindings)
	case *Union:
		if x.All {
			dst = append(dst, "UnionAll("...)
		} else {
			dst = append(dst, "Union("...)
		}
		dst = appendFingerprint(dst, x.L, bindings)
		dst = append(dst, ',')
		dst = appendFingerprint(dst, x.R, bindings)
	case *Sort:
		dst = append(dst, "Sort["...)
		for i, k := range x.Keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendColRef(dst, k.Col, bindings)
			if k.Desc {
				dst = append(dst, " desc"...)
			}
		}
		dst = append(dst, "]("...)
		dst = appendFingerprint(dst, x.In, bindings)
	case *Limit:
		dst = append(dst, "Limit["...)
		dst = strconv.AppendInt(dst, x.N, 10)
		dst = append(dst, "]("...)
		dst = appendFingerprint(dst, x.In, bindings)
	case *Derived:
		dst = append(dst, "Derived["...)
		dst = sql.AppendBinding(dst, x.Binding, bindings)
		dst = append(dst, "]("...)
		dst = appendFingerprint(dst, x.In, bindings)
	default:
		return append(dst, fmt.Sprintf("?%T", n)...)
	}
	return append(dst, ')')
}

// Equal reports structural plan equality via fingerprints.
func Equal(a, b Node) bool { return Fingerprint(a) == Fingerprint(b) }

// BaseTables returns the multiset of base table names scanned by the plan,
// sorted. Used by the SPES-style verifier's input-table check.
func BaseTables(n Node) []string {
	var out []string
	Walk(n, func(m Node) bool {
		if s, ok := m.(*Scan); ok {
			out = append(out, s.Table)
		}
		return true
	})
	sort.Strings(out)
	return out
}
