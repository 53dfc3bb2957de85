package sql

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// MaxNesting bounds how deeply a statement may nest. Each parenthesised
// expression, NOT or unary minus applied to another, subquery and
// parenthesised join is one level, and the parser answers a *ParseError at
// the token that would go one level deeper. The bound keeps the parser's
// recursion off the Go runtime's stack limit, a fatal error that no recover
// sees and that a 1 MiB request body of parentheses reaches. The deepest of
// the 61,028 statements of the rewrite corpus and the workload suite nests 6
// levels (a plain SELECT … WHERE is 2); the bound is 32 times that.
const MaxNesting = 6 * 32

// MaxTokens bounds how many tokens a statement may have. The lexer stops at
// the first token past it with a *ParseError there, so lexing and parsing a
// statement costs what MaxTokens tokens cost however long its text. The
// longest of the 42,464 statements of the workload suite (2,000 per
// application) and the rewrite corpus has 36 tokens, and no Calcite pair or
// §2.2 study query is longer. 32 times that would refuse the
// 1,225 tokens of a 190-operator plan that plan.MaxNodes admits (a WHERE of
// 174 conjuncts over 16 joins), so the bound is 64 times it.
const MaxTokens = 36 * 64

// Parse parses a single SQL statement (a possibly compound SELECT) from src.
func Parse(src string) (*SelectStmt, error) {
	// A typical statement lexes into this stack buffer; only a longer one
	// moves its tokens to the heap.
	var buf [64]token
	toks, lexErr := lex(buf[:0], src, MaxTokens)
	if toks == nil {
		return nil, lexErr
	}
	var nodes nodeSlabs
	p := parser{toks: toks, src: src, nodes: &nodes}
	p.sizeSlabs()
	stmt, err := p.parseSelectCompound()
	if err == nil {
		p.accept(tkSymbol, ";")
		if !p.at(tkEOF, "") {
			err = p.errf("trailing input starting with %q", p.cur().text)
		}
	}
	if lexErr != nil {
		// The statement has more than MaxTokens tokens. It is refused at the
		// first one over unless the tokens before hold an error of their
		// own: the earlier error is reported, so a statement nested too
		// deeply is refused for that however long it is.
		if pe, ok := err.(*ParseError); !ok || pe.Offset >= toks[len(toks)-1].pos {
			return nil, lexErr
		}
	}
	if err != nil {
		return nil, err
	}
	return stmt, nil
}

// MustParse is Parse that panics on error; intended for static query tables
// in tests and workloads.
func MustParse(src string) *SelectStmt {
	s, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("sql.MustParse(%q): %v", src, err))
	}
	return s
}

type parser struct {
	toks    []token
	idx     int
	src     string
	nparams int // '?' placeholders consumed so far (next Param.Index)
	depth   int // nesting levels entered, see MaxNesting
	// nodes sits behind a pointer so that the nodes it hands out, which
	// escape, are not a field of the parser next to toks, which must not.
	nodes *nodeSlabs
}

// nodeSlabs holds the three node types a statement has most of, one slab
// each.
type nodeSlabs struct {
	cols slab[ColumnRef]
	lits slab[Literal]
	bins slab[BinaryExpr]
}

// slab hands out pointers into one allocation that holds a statement's nodes
// of one type. Past its size it allocates each node on its own.
type slab[T any] struct{ free []T }

func (s *slab[T]) next() *T {
	if len(s.free) == 0 {
		return new(T)
	}
	n := &s.free[0]
	s.free = s.free[1:]
	return n
}

// sizeSlabs sizes the slabs from the tokens, which are all known before
// parsing starts. The counts are exact for what the parser accepts, with one
// exception that only wastes a slot: an identifier after a comma or an
// opening parenthesis inside a FROM clause is a table name, not the column it
// is counted as.
func (p *parser) sizeSlabs() {
	var cols, lits, bins int
	var prev, prev2 token
	for i, t := range p.toks {
		switch t.kind {
		case tkIdent:
			// A function name, a qualifier, a table name or an alias is not a
			// column. The last token is EOF, so toks[i+1] exists.
			next := p.toks[i+1]
			call := next.kind == tkSymbol && (next.text == "(" || next.text == ".")
			named := prev.kind == tkKeyword && (prev.text == "FROM" || prev.text == "JOIN" || prev.text == "AS")
			if !call && !named && !endsOperand(prev) {
				cols++
			}
		case tkNumber:
			if prev.kind != tkKeyword || prev.text != "LIMIT" {
				lits++
			}
		case tkString:
			lits++
		case tkKeyword, tkSymbol:
			switch t.text {
			case "TRUE", "FALSE":
				lits++
			case "NULL": // a literal unless it ends IS [NOT] NULL
				if prev.text != "IS" && (prev.text != "NOT" || prev2.text != "IS") {
					lits++
				}
			case "BETWEEN": // a BETWEEN b AND c is a >= b AND a <= c; its AND counts on its own
				bins += 2
			}
			// A minus or a star is binary after an operand; otherwise it is a
			// sign or a star.
			if _, prec := binaryOp(t.text); prec > 0 && (endsOperand(prev) || t.text != "-" && t.text != "*") {
				bins++
			}
		}
		prev2, prev = prev, t
	}
	p.nodes.cols.free = make([]ColumnRef, cols) // a length of 0 allocates nothing
	p.nodes.lits.free = make([]Literal, lits)
	p.nodes.bins.free = make([]BinaryExpr, bins)
}

// endsOperand reports whether t can be the last token of an operand.
func endsOperand(t token) bool {
	switch t.kind {
	case tkIdent, tkNumber, tkString, tkParam:
		return true
	case tkSymbol:
		return t.text == ")"
	case tkKeyword:
		return t.text == "NULL" || t.text == "TRUE" || t.text == "FALSE" || t.text == "END"
	}
	return false
}

func (p *parser) column(table, column string) *ColumnRef {
	c := p.nodes.cols.next()
	*c = ColumnRef{Table: table, Column: column}
	return c
}

func (p *parser) literal(v Value) *Literal {
	l := p.nodes.lits.next()
	l.Val = v
	return l
}

func (p *parser) binary(op string, l, r Expr) *BinaryExpr {
	b := p.nodes.bins.next()
	*b = BinaryExpr{Op: op, L: l, R: r}
	return b
}

// enter counts one nesting level at the current token; see MaxNesting.
func (p *parser) enter() error {
	p.depth++
	if p.depth > MaxNesting {
		return p.errf("statement nests deeper than %d levels", MaxNesting)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) cur() token  { return p.toks[p.idx] }
func (p *parser) peek() token { return p.toks[min(p.idx+1, len(p.toks)-1)] }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.idx++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		t := p.cur()
		p.idx++
		return t, nil
	}
	return token{}, p.errf("expected %q, found %q", text, p.cur().text)
}

// ParseError is a typed parse failure: Offset is the byte offset of the
// token the parser stopped at, so callers (the HTTP server's 422 mapping,
// editors) can point at the position without scraping the message. Error()
// keeps the historical "sql: parse error at offset N: msg" format.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sql: parse error at offset %d: %s", e.Offset, e.Msg)
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Offset: p.cur().pos, Msg: fmt.Sprintf(format, args...)}
}

// parseSelectCompound handles UNION chains (left-associative).
func (p *parser) parseSelectCompound() (*SelectStmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	left, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	for p.at(tkKeyword, "UNION") {
		p.idx++
		op := "UNION"
		if p.accept(tkKeyword, "ALL") {
			op = "UNION ALL"
		}
		right, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		left = &SelectStmt{SetOp: op, SetLeft: left, SetRight: right}
	}
	// ORDER BY / LIMIT after the chain applies to the whole statement.
	if err := p.parseOrderLimit(left); err != nil {
		return nil, err
	}
	return left, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if p.accept(tkSymbol, "(") {
		inner, err := p.parseSelectCompound()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	if _, err := p.expect(tkKeyword, "SELECT"); err != nil {
		return nil, err
	}
	n := new(selectNode)
	stmt := &n.stmt
	stmt.Distinct = p.accept(tkKeyword, "DISTINCT")
	p.accept(tkKeyword, "ALL") // SELECT ALL is the default
	items, err := p.parseSelectItems(&n.item)
	if err != nil {
		return nil, err
	}
	stmt.Items = items
	if p.accept(tkKeyword, "FROM") {
		from, err := p.parseTableExpr(&n.table)
		if err != nil {
			return nil, err
		}
		stmt.From = from
	}
	if p.accept(tkKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.at(tkKeyword, "GROUP") {
		p.idx++
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tkKeyword, "HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	// ORDER BY / LIMIT are parsed by parseSelectCompound so that in a UNION
	// chain they bind to the whole compound, per the SQL standard.
	return stmt, nil
}

func (p *parser) parseOrderLimit(stmt *SelectStmt) error {
	if p.at(tkKeyword, "ORDER") {
		p.idx++
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			item := OrderItem{Expr: e}
			if p.accept(tkKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tkKeyword, "ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tkKeyword, "LIMIT") {
		t, err := p.expect(tkNumber, "")
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return p.errf("bad LIMIT %q", t.text)
		}
		stmt.Limit = &n
	}
	return nil
}

// selectNode is the slab of one SELECT: the statement together with the two
// parts nearly every statement has one of, its first table and its first
// select item.
type selectNode struct {
	stmt  SelectStmt
	table TableName
	item  [1]SelectItem
}

// parseSelectItems collects the list on the stack. A single item goes into
// one; a longer list is allocated once, at its final length.
func (p *parser) parseSelectItems(one *[1]SelectItem) ([]SelectItem, error) {
	var buf [8]SelectItem
	items := buf[:0]
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if !p.accept(tkSymbol, ",") {
			if len(items) == 1 {
				one[0] = items[0]
				return one[:], nil
			}
			return slices.Clone(items), nil
		}
	}
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// `*` or `tbl.*`
	if p.at(tkSymbol, "*") {
		p.idx++
		return SelectItem{Star: true}, nil
	}
	if p.cur().kind == tkIdent && p.peek().kind == tkSymbol && p.peek().text == "." {
		// Lookahead for tbl.*
		if p.idx+2 < len(p.toks) && p.toks[p.idx+2].kind == tkSymbol && p.toks[p.idx+2].text == "*" {
			tbl := p.cur().text
			p.idx += 3
			return SelectItem{Star: true, StarTable: tbl}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(tkKeyword, "AS") {
		t := p.cur()
		if t.kind != tkIdent {
			return SelectItem{}, p.errf("expected alias after AS, found %q", t.text)
		}
		p.idx++
		item.Alias = t.text
	} else if p.cur().kind == tkIdent {
		item.Alias = p.cur().text
		p.idx++
	}
	return item, nil
}

// parseTableExpr parses a FROM clause; its first base table, if any, is
// written to first.
func (p *parser) parseTableExpr(first *TableName) (TableExpr, error) {
	left, err := p.parseTablePrimary(first)
	if err != nil {
		return nil, err
	}
	for {
		var kind JoinKind
		switch {
		case p.at(tkKeyword, "JOIN"):
			kind = InnerJoin
			p.idx++
		case p.at(tkKeyword, "INNER"):
			p.idx++
			if _, err := p.expect(tkKeyword, "JOIN"); err != nil {
				return nil, err
			}
			kind = InnerJoin
		case p.at(tkKeyword, "LEFT"):
			p.idx++
			p.accept(tkKeyword, "OUTER")
			if _, err := p.expect(tkKeyword, "JOIN"); err != nil {
				return nil, err
			}
			kind = LeftJoin
		case p.at(tkKeyword, "RIGHT"):
			p.idx++
			p.accept(tkKeyword, "OUTER")
			if _, err := p.expect(tkKeyword, "JOIN"); err != nil {
				return nil, err
			}
			kind = RightJoin
		case p.at(tkKeyword, "CROSS"):
			p.idx++
			if _, err := p.expect(tkKeyword, "JOIN"); err != nil {
				return nil, err
			}
			kind = CrossJoin
		case p.at(tkSymbol, ","):
			p.idx++
			kind = CrossJoin
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary(nil)
		if err != nil {
			return nil, err
		}
		join := &JoinExpr{Kind: kind, Left: left, Rite: right}
		if kind != CrossJoin {
			if _, err := p.expect(tkKeyword, "ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			join.On = on
		}
		left = join
	}
}

// parseTablePrimary parses one FROM item. A base table is written to name
// unless that is nil.
func (p *parser) parseTablePrimary(name *TableName) (TableExpr, error) {
	if p.at(tkSymbol, "(") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		p.idx++
		// Derived table or parenthesized join.
		if p.at(tkKeyword, "SELECT") {
			sel, err := p.parseSelectCompound()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			alias := ""
			p.accept(tkKeyword, "AS")
			if p.cur().kind == tkIdent {
				alias = p.cur().text
				p.idx++
			}
			return &SubqueryTable{Select: sel, Alias: alias}, nil
		}
		inner, err := p.parseTableExpr(name)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	t := p.cur()
	if t.kind != tkIdent {
		return nil, p.errf("expected table name, found %q", t.text)
	}
	p.idx++
	if name == nil {
		name = new(TableName)
	}
	*name = TableName{Name: t.text}
	p.accept(tkKeyword, "AS")
	if p.cur().kind == tkIdent {
		name.Alias = p.cur().text
		p.idx++
	}
	return name, nil
}

// Expressions are parsed by precedence climbing over binaryOp's levels. NOT
// and the predicates (a comparison, LIKE, IN, IS, BETWEEN, EXISTS) sit
// between AND and the arithmetic operators, and a predicate is complete: only
// AND or OR may follow one, so neither a = b = c nor EXISTS (…) + 1 parses.

func (p *parser) parseExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.parseBinary(precOr)
}

// parseBinary parses an expression whose binary operators bind at least as
// tightly as level minPrec. lvl is the level of what is parsed so far, precNot
// once that is a predicate: an operator binding more tightly than lvl may not
// take it as its left operand, since the right operand that ended with it
// stopped short of that operator for a reason.
func (p *parser) parseBinary(minPrec int) (Expr, error) {
	var left Expr
	lvl := precPrimary
	switch {
	case minPrec <= precNot && p.at(tkKeyword, "NOT"):
		if err := p.enter(); err != nil {
			return nil, err
		}
		p.idx++
		e, err := p.parseBinary(precNot)
		p.leave()
		if err != nil {
			return nil, err
		}
		left, lvl = &UnaryExpr{Op: "NOT", E: e}, precNot
	case minPrec <= precCmp:
		e, done, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		left = e
		if done {
			lvl = precNot
		}
	default:
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = e
	}
	for {
		t := p.cur()
		if t.kind != tkSymbol && t.kind != tkKeyword {
			return left, nil
		}
		op, prec := binaryOp(t.text)
		if prec < minPrec || prec > lvl {
			return left, nil
		}
		p.idx++
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		left, lvl = p.binary(op, left, right), prec
		if prec == precCmp {
			lvl = precNot
		}
	}
}

// parsePredicate parses EXISTS, or an arithmetic operand together with the
// IN, IS, BETWEEN or NOT LIKE that follows it, and reports whether it parsed
// a complete predicate. A comparison or LIKE after the operand is left to
// parseBinary.
func (p *parser) parsePredicate() (Expr, bool, error) {
	if p.at(tkKeyword, "EXISTS") {
		p.idx++
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, false, err
		}
		sel, err := p.parseSelectCompound()
		if err != nil {
			return nil, false, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, false, err
		}
		return &ExistsExpr{Select: sel}, true, nil
	}
	left, err := p.parseBinary(precAdd)
	if err != nil {
		return nil, false, err
	}
	negated := false
	if p.at(tkKeyword, "NOT") && (p.peek().text == "IN" || p.peek().text == "LIKE" || p.peek().text == "BETWEEN") {
		negated = true
		p.idx++
	}
	switch {
	case p.accept(tkKeyword, "IN"):
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, false, err
		}
		if p.at(tkKeyword, "SELECT") {
			sel, err := p.parseSelectCompound()
			if err != nil {
				return nil, false, err
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, false, err
			}
			return &InSubquery{E: left, Select: sel, Negated: negated}, true, nil
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, false, err
			}
			list = append(list, e)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, false, err
		}
		return &InListExpr{E: left, List: list, Negated: negated}, true, nil
	case p.accept(tkKeyword, "IS"):
		neg := p.accept(tkKeyword, "NOT")
		if _, err := p.expect(tkKeyword, "NULL"); err != nil {
			return nil, false, err
		}
		return &IsNullExpr{E: left, Negated: neg}, true, nil
	case negated && p.accept(tkKeyword, "LIKE"):
		right, err := p.parseBinary(precAdd)
		if err != nil {
			return nil, false, err
		}
		return &UnaryExpr{Op: "NOT", E: p.binary("LIKE", left, right)}, true, nil
	case p.accept(tkKeyword, "BETWEEN"):
		lo, err := p.parseBinary(precAdd)
		if err != nil {
			return nil, false, err
		}
		if _, err := p.expect(tkKeyword, "AND"); err != nil {
			return nil, false, err
		}
		hi, err := p.parseBinary(precAdd)
		if err != nil {
			return nil, false, err
		}
		e := Expr(p.binary("AND", p.binary(">=", left, lo), p.binary("<=", left, hi)))
		if negated {
			e = &UnaryExpr{Op: "NOT", E: e}
		}
		return e, true, nil
	}
	return left, false, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if !p.at(tkSymbol, "-") {
		return p.parsePrimary()
	}
	if p.peek().kind == tkNumber {
		// The minus belongs to the number: -9223372036854775808 is an int64
		// although its digits alone are not.
		p.idx++
		return p.number(true)
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	minus := p.cur()
	p.idx++
	e, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	// The literal is this parse's own, so negating it in place is safe.
	if lit, ok := e.(*Literal); ok && lit.Val.Kind == KindInt {
		if lit.Val.I == math.MinInt64 {
			return nil, errAt(minus.pos, "integer out of range: -(%d)", lit.Val.I)
		}
		lit.Val.I = -lit.Val.I
		return lit, nil
	}
	if lit, ok := e.(*Literal); ok && lit.Val.Kind == KindFloat {
		lit.Val.F = -lit.Val.F
		return lit, nil
	}
	return &UnaryExpr{Op: "-", E: e}, nil
}

// number parses the number token at the cursor, negated when neg is set.
func (p *parser) number(neg bool) (Expr, error) {
	t := p.cur()
	if strings.Contains(t.text, ".") {
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		p.idx++
		if neg {
			f = -f
		}
		return p.literal(NewFloat(f)), nil
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++ // |math.MinInt64|
	}
	u, err := strconv.ParseUint(t.text, 10, 64)
	if err != nil || u > limit {
		return nil, p.errf("bad number %q", t.text)
	}
	p.idx++
	n := int64(u)
	if neg {
		n = -n // for u = 1<<63 both conversions wrap to math.MinInt64, which is the value
	}
	return p.literal(NewInt(n)), nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tkNumber:
		return p.number(false)
	case tkString:
		p.idx++
		return p.literal(NewString(t.text)), nil
	case tkParam:
		p.idx++
		idx := p.nparams
		p.nparams++
		return &Param{Index: idx}, nil
	case tkKeyword:
		switch t.text {
		case "NULL":
			p.idx++
			return p.literal(Null), nil
		case "TRUE":
			p.idx++
			return p.literal(NewBool(true)), nil
		case "FALSE":
			p.idx++
			return p.literal(NewBool(false)), nil
		case "CASE":
			return p.parseCase()
		}
	case tkIdent:
		// Function call?
		if p.peek().kind == tkSymbol && p.peek().text == "(" {
			return p.parseFuncCall()
		}
		p.idx++
		if p.accept(tkSymbol, ".") {
			col := p.cur()
			if col.kind != tkIdent {
				return nil, p.errf("expected column after %q.", t.text)
			}
			p.idx++
			return p.column(t.text, col.text), nil
		}
		return p.column("", t.text), nil
	case tkSymbol:
		if t.text == "(" {
			p.idx++
			if p.at(tkKeyword, "SELECT") {
				sel, err := p.parseSelectCompound()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tkSymbol, ")"); err != nil {
					return nil, err
				}
				// Scalar subquery in expression position: model as
				// an IN-style existence only when used by caller;
				// keep as ExistsExpr-compatible is wrong, so wrap.
				return &ScalarSubquery{Select: sel}, nil
			}
			first, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.accept(tkSymbol, ",") {
				items := []Expr{first}
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					items = append(items, e)
					if !p.accept(tkSymbol, ",") {
						break
					}
				}
				if _, err := p.expect(tkSymbol, ")"); err != nil {
					return nil, err
				}
				return &TupleExpr{Items: items}, nil
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			return first, nil
		}
	}
	return nil, p.errf("unexpected token %q", t.text)
}

func (p *parser) parseCase() (Expr, error) {
	// Minimal CASE WHEN cond THEN expr [ELSE expr] END support.
	p.idx++ // CASE
	c := &CaseExpr{}
	for p.accept(tkKeyword, "WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkKeyword, "THEN"); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Then: val})
	}
	if p.accept(tkKeyword, "ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if _, err := p.expect(tkKeyword, "END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseFuncCall() (Expr, error) {
	name := strings.ToUpper(p.cur().text)
	p.idx += 2 // ident (
	call := &FuncCall{Name: name}
	if p.accept(tkSymbol, "*") {
		call.Star = true
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	call.Distinct = p.accept(tkKeyword, "DISTINCT")
	if !p.at(tkSymbol, ")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, e)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	return call, nil
}
