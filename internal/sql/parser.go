package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a single SQL statement (a possibly compound SELECT) from src.
func Parse(src string) (*SelectStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	stmt, err := p.parseSelectCompound()
	if err != nil {
		return nil, err
	}
	p.accept(tkSymbol, ";")
	if !p.at(tkEOF, "") {
		return nil, p.errf("trailing input starting with %q", p.cur().text)
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
}

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
	stmt := &SelectStmt{}
	stmt.Distinct = p.accept(tkKeyword, "DISTINCT")
	if p.accept(tkKeyword, "ALL") {
		// SELECT ALL is the default; ignore.
		_ = stmt
	}
	items, err := p.parseSelectItems()
	if err != nil {
		return nil, err
	}
	stmt.Items = items
	if p.accept(tkKeyword, "FROM") {
		from, err := p.parseTableExpr()
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

func (p *parser) parseSelectItems() ([]SelectItem, error) {
	var items []SelectItem
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if !p.accept(tkSymbol, ",") {
			return items, nil
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

func (p *parser) parseTableExpr() (TableExpr, error) {
	left, err := p.parseTablePrimary()
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
		right, err := p.parseTablePrimary()
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

func (p *parser) parseTablePrimary() (TableExpr, error) {
	if p.accept(tkSymbol, "(") {
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
		inner, err := p.parseTableExpr()
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
	name := &TableName{Name: t.text}
	p.accept(tkKeyword, "AS")
	if p.cur().kind == tkIdent {
		name.Alias = p.cur().text
		p.idx++
	}
	return name, nil
}

// Expression grammar, loosest to tightest: OR, AND, NOT, predicate
// (comparison/IN/IS/LIKE/BETWEEN), additive, multiplicative, unary, primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tkKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tkKeyword, "AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tkKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	if p.at(tkKeyword, "EXISTS") {
		p.idx++
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		sel, err := p.parseSelectCompound()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return &ExistsExpr{Select: sel}, nil
	}
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	negated := false
	if p.at(tkKeyword, "NOT") && (p.peek().text == "IN" || p.peek().text == "LIKE" || p.peek().text == "BETWEEN") {
		negated = true
		p.idx++
	}
	switch {
	case p.accept(tkKeyword, "IN"):
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		if p.at(tkKeyword, "SELECT") {
			sel, err := p.parseSelectCompound()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			return &InSubquery{E: left, Select: sel, Negated: negated}, nil
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return &InListExpr{E: left, List: list, Negated: negated}, nil
	case p.accept(tkKeyword, "IS"):
		neg := p.accept(tkKeyword, "NOT")
		if _, err := p.expect(tkKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: left, Negated: neg}, nil
	case p.accept(tkKeyword, "LIKE"):
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		e := Expr(&BinaryExpr{Op: "LIKE", L: left, R: right})
		if negated {
			e = &UnaryExpr{Op: "NOT", E: e}
		}
		return e, nil
	case p.accept(tkKeyword, "BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		e := Expr(&BinaryExpr{
			Op: "AND",
			L:  &BinaryExpr{Op: ">=", L: left, R: lo},
			R:  &BinaryExpr{Op: "<=", L: left, R: hi},
		})
		if negated {
			e = &UnaryExpr{Op: "NOT", E: e}
		}
		return e, nil
	}
	for _, op := range []string{"=", "<>", "!=", "<=", ">=", "<", ">"} {
		if p.accept(tkSymbol, op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &BinaryExpr{Op: op, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tkSymbol, "+"):
			op = "+"
		case p.accept(tkSymbol, "-"):
			op = "-"
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tkSymbol, "*"):
			op = "*"
		case p.accept(tkSymbol, "/"):
			op = "/"
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tkSymbol, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok && lit.Val.Kind == KindInt {
			return &Literal{Val: NewInt(-lit.Val.I)}, nil
		}
		if lit, ok := e.(*Literal); ok && lit.Val.Kind == KindFloat {
			return &Literal{Val: NewFloat(-lit.Val.F)}, nil
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tkNumber:
		p.idx++
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return &Literal{Val: NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &Literal{Val: NewInt(n)}, nil
	case tkString:
		p.idx++
		return &Literal{Val: NewString(t.text)}, nil
	case tkParam:
		p.idx++
		idx := p.nparams
		p.nparams++
		return &Param{Index: idx}, nil
	case tkKeyword:
		switch t.text {
		case "NULL":
			p.idx++
			return &Literal{Val: Null}, nil
		case "TRUE":
			p.idx++
			return &Literal{Val: NewBool(true)}, nil
		case "FALSE":
			p.idx++
			return &Literal{Val: NewBool(false)}, nil
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
			return &ColumnRef{Table: t.text, Column: col.text}, nil
		}
		return &ColumnRef{Column: t.text}, nil
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
