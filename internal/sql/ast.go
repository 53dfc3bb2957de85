package sql

// This file defines the SQL abstract syntax tree produced by the parser. The
// dialect matches what the paper's workloads exercise: SELECT with optional
// DISTINCT, FROM with INNER/LEFT/RIGHT joins and derived tables, WHERE with
// AND/OR/NOT, comparisons, IN (list | subquery), EXISTS, IS [NOT] NULL,
// searched CASE, scalar subqueries, GROUP BY / HAVING with the standard
// aggregate functions, UNION [ALL], ORDER BY and LIMIT.

// Node is implemented by every AST node.
type Node interface{ node() }

// Expr is a scalar or boolean expression.
type Expr interface {
	Node
	expr()
}

// TableExpr is a FROM-clause item.
type TableExpr interface {
	Node
	tableExpr()
}

// SelectStmt is a (possibly compound) SELECT statement. When SetOp is
// non-empty the statement is `Left SetOp Right` and the scalar clauses of the
// receiver are unused.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableExpr
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    *int64

	SetOp    string // "", "UNION", "UNION ALL"
	SetLeft  *SelectStmt
	SetRight *SelectStmt
}

func (*SelectStmt) node() {}

// SelectItem is one projection item: an expression with an optional alias, or
// a star (possibly table-qualified).
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
	// StarTable qualifies a star item, e.g. "T" in SELECT T.*.
	StarTable string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableName is a base-table reference with an optional alias.
type TableName struct {
	Name  string
	Alias string
}

func (*TableName) node()      {}
func (*TableName) tableExpr() {}

// Binding returns the name the table is referred to by in the query.
func (t *TableName) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinKind distinguishes the supported join flavours.
type JoinKind int

// Join kinds.
const (
	InnerJoin JoinKind = iota
	LeftJoin
	RightJoin
	CrossJoin
)

func (k JoinKind) String() string {
	switch k {
	case InnerJoin:
		return "INNER JOIN"
	case LeftJoin:
		return "LEFT JOIN"
	case RightJoin:
		return "RIGHT JOIN"
	case CrossJoin:
		return "CROSS JOIN"
	}
	return "JOIN"
}

// JoinExpr is a binary join with an ON condition (nil for CROSS JOIN).
type JoinExpr struct {
	Kind JoinKind
	Left TableExpr
	Rite TableExpr
	On   Expr
}

func (*JoinExpr) node()      {}
func (*JoinExpr) tableExpr() {}

// SubqueryTable is a derived table: (SELECT ...) AS alias.
type SubqueryTable struct {
	Select *SelectStmt
	Alias  string
}

func (*SubqueryTable) node()      {}
func (*SubqueryTable) tableExpr() {}

// The thirteen expression kinds follow. A fourteenth must be taught to
// exactly four places: the parser (parser.go), the printer (appendNode and
// exprPrec in printer.go), the evaluator (internal/engine/eval.go) and the one
// structural switch, MapChildren in traverse.go. Every walk, copy,
// substitution, rename and free-column analysis in the repository is built on
// MapChildren and learns the new kind from it.

// ColumnRef references table.column; Table may be empty when unqualified.
type ColumnRef struct {
	Table  string
	Column string
}

func (*ColumnRef) node() {}
func (*ColumnRef) expr() {}

// Literal is a constant value.
type Literal struct {
	Val Value
}

func (*Literal) node() {}
func (*Literal) expr() {}

// Param is a positional query parameter (`?`), randomized by the benchmark
// client like the paper's dedicated client program (§8.1).
type Param struct {
	Index int
}

func (*Param) node() {}
func (*Param) expr() {}

// BinaryExpr is a binary operator application. Op is one of
// = <> < <= > >= + - * / AND OR.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

func (*BinaryExpr) node() {}
func (*BinaryExpr) expr() {}

// UnaryExpr is NOT or unary minus.
type UnaryExpr struct {
	Op string // "NOT", "-"
	E  Expr
}

func (*UnaryExpr) node() {}
func (*UnaryExpr) expr() {}

// IsNullExpr is `expr IS [NOT] NULL`.
type IsNullExpr struct {
	E       Expr
	Negated bool
}

func (*IsNullExpr) node() {}
func (*IsNullExpr) expr() {}

// InListExpr is `expr [NOT] IN (v1, v2, ...)`.
type InListExpr struct {
	E       Expr
	List    []Expr
	Negated bool
}

func (*InListExpr) node() {}
func (*InListExpr) expr() {}

// InSubquery is `expr [NOT] IN (SELECT ...)`. Multi-column IN uses a
// TupleExpr on the left.
type InSubquery struct {
	E       Expr
	Select  *SelectStmt
	Negated bool
}

func (*InSubquery) node() {}
func (*InSubquery) expr() {}

// ExistsExpr is `[NOT] EXISTS (SELECT ...)`.
type ExistsExpr struct {
	Select  *SelectStmt
	Negated bool
}

func (*ExistsExpr) node() {}
func (*ExistsExpr) expr() {}

// TupleExpr groups expressions, e.g. (a, b) IN (SELECT x, y ...).
type TupleExpr struct {
	Items []Expr
}

func (*TupleExpr) node() {}
func (*TupleExpr) expr() {}

// ScalarSubquery is a subquery used in scalar expression position.
type ScalarSubquery struct {
	Select *SelectStmt
}

func (*ScalarSubquery) node() {}
func (*ScalarSubquery) expr() {}

// CaseWhen is one WHEN/THEN arm of a CASE expression.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

func (*CaseExpr) node() {}
func (*CaseExpr) expr() {}

// FuncCall is a function application; for aggregate functions Distinct may be
// set and Star marks COUNT(*).
type FuncCall struct {
	Name     string
	Args     []Expr
	Distinct bool
	Star     bool
}

func (*FuncCall) node() {}
func (*FuncCall) expr() {}

// AggregateFuncs lists the aggregate function names the engine understands.
var AggregateFuncs = map[string]bool{
	"COUNT": true,
	"SUM":   true,
	"AVG":   true,
	"MIN":   true,
	"MAX":   true,
}

// IsAggregate reports whether e is a call to an aggregate function.
func IsAggregate(e Expr) bool {
	f, ok := e.(*FuncCall)
	return ok && AggregateFuncs[f.Name]
}

// SplitConjuncts flattens a tree of ANDs into the list of conjuncts.
func SplitConjuncts(e Expr) []Expr { return AppendConjuncts(nil, e) }

// AppendConjuncts appends the conjuncts of a tree of ANDs to dst, left to
// right, and returns the extended slice; nothing for a nil e. Into a buffer
// the caller owns it allocates nothing.
func AppendConjuncts(dst []Expr, e Expr) []Expr {
	if e == nil {
		return dst
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return AppendConjuncts(AppendConjuncts(dst, b.L), b.R)
	}
	return append(dst, e)
}

// JoinConjuncts rebuilds a single expression from conjuncts (nil when empty).
func JoinConjuncts(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: "AND", L: out, R: e}
		}
	}
	return out
}
