package sql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// The printer is append-style, like strconv.AppendInt: AppendSelect and
// AppendExpr take the destination buffer and return it extended, so a hot
// caller renders into scratch it owns and compares bytes, and nothing here
// allocates unless the buffer grows. Format and FormatExpr are the
// string-returning wrappers over the same code.
//
// All of it is one self-recursive function over Node, appendNode, instead of
// one function per node class. Statements, table expressions and expressions
// nest in each other, and Go's escape analysis sends a buffer that travels
// through the results of *mutually* recursive functions (or through a field
// written via a pointer receiver) to the heap; through one function's own
// result it stays where the caller put it, which is what lets the wrappers
// render into a stack buffer.

// Format renders a statement back to SQL text. The output reparses to an
// equivalent AST (round-trip property, tested).
func Format(s *SelectStmt) string {
	var buf [256]byte
	return string(AppendSelect(buf[:0], s))
}

// FormatExpr renders one expression.
func FormatExpr(e Expr) string {
	var buf [128]byte
	return string(AppendExpr(buf[:0], e))
}

// AppendSelect appends the text Format returns for s to dst.
func AppendSelect(dst []byte, s *SelectStmt) []byte { return appendNode(dst, s, 0, nil) }

// AppendExpr appends the text FormatExpr returns for e to dst.
func AppendExpr(dst []byte, e Expr) []byte { return appendNode(dst, e, 0, nil) }

// AppendOperand appends e as the left (right false) or right operand of the
// binary operator op, parenthesized exactly where AppendExpr would
// parenthesize it inside a *BinaryExpr with that operator. Printing a
// left-deep AND chain operand by operand gives JoinConjuncts' text.
func AppendOperand(dst []byte, e Expr, op string, right bool) []byte {
	_, prec := binaryOp(op)
	if right {
		prec++
	}
	return appendNode(dst, e, prec, nil)
}

// AppendExprPositional is AppendExpr with every column qualifier that is a
// member of bindings written as its position there (see AppendBinding), which
// makes the text insensitive to how the tables were aliased. That reaches the
// correlated references of embedded statements too: inside one, a member of
// bindings stays positional until a FROM clause re-introduces the name.
func AppendExprPositional(dst []byte, e Expr, bindings []string) []byte {
	return appendNode(dst, e, 0, bindings)
}

// visible returns bindings as a statement whose FROM clause is t sees them:
// an entry the clause re-introduces is shadowed (blanked in a copy, so the
// other entries keep their positions). The statement's derived tables are
// printed under the result as well, although a sibling's alias does not shadow
// anything for them; between two plans with valid references that can only
// keep a qualifier verbatim that could have been positional.
func visible(bindings []string, t TableExpr) []string {
	out := bindings
	for i, b := range bindings {
		if b != "" && supplies(t, nil, b, "") {
			if &out[0] == &bindings[0] {
				out = slices.Clone(bindings)
			}
			out[i] = ""
		}
	}
	return out
}

// AppendBinding appends a table binding to dst: "b<i>" when it is bindings[i],
// the binding itself otherwise (always, for nil bindings).
func AppendBinding(dst []byte, binding string, bindings []string) []byte {
	if i := slices.Index(bindings, binding); i >= 0 {
		dst = append(dst, 'b')
		return strconv.AppendInt(dst, int64(i), 10)
	}
	return AppendIdent(dst, binding)
}

// AppendIdent appends an identifier, quoted when the lexer would not read it
// back bare as the same identifier: when it is empty, a keyword, or not an
// ASCII letter or _ followed by letters, digits, _ and $. The quote is " or,
// for an identifier holding one, ` — quoted identifiers have no escapes, so
// no identifier the lexer produced holds both.
func AppendIdent(dst []byte, id string) []byte {
	bare := id != "" && isIdentStart(id[0])
	for i := 1; bare && i < len(id); i++ {
		bare = isIdentPart(id[i])
	}
	if bare {
		if _, kw := keywordLookup(id); !kw {
			return append(dst, id...)
		}
	}
	q := byte('"')
	if strings.IndexByte(id, '"') >= 0 {
		q = '`'
	}
	dst = append(dst, q)
	dst = append(dst, id...)
	return append(dst, q)
}

// appendLiteral appends v as text the lexer reads back as v: a float as
// digits with a point, a string with its quotes doubled. Value.String keeps
// its own form because the engine keys rows, indexes and DISTINCT on it, and
// there Int 2 and Float 2.0 must both be "2", as Equal has them.
func appendLiteral(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindFloat:
		n := len(dst)
		dst = strconv.AppendFloat(dst, v.F, 'f', -1, 64)
		if !slices.Contains(dst[n:], '.') {
			dst = append(dst, ".0"...)
		}
		return dst
	case KindString:
		dst = append(dst, '\'')
		for i := 0; i < len(v.S); i++ {
			if v.S[i] == '\'' {
				dst = append(dst, '\'')
			}
			dst = append(dst, v.S[i])
		}
		return append(dst, '\'')
	}
	return appendValue(dst, v)
}

// Precedence levels, loosest to tightest. The parser climbs them and the
// printer parenthesizes by them.
const (
	precOr = 1 + iota
	precAnd
	precNot
	precCmp // comparisons and LIKE; IN, IS and BETWEEN bind alike
	precAdd
	precMul
	precUnary
	precPrimary
)

// binaryOp returns the canonical spelling and the precedence level of the
// binary operator written text, or level 0 when text is no binary operator.
func binaryOp(text string) (string, int) {
	switch text {
	case "OR":
		return text, precOr
	case "AND":
		return text, precAnd
	case "=", "<>", "<", "<=", ">", ">=", "LIKE":
		return text, precCmp
	case "!=":
		return "<>", precCmp
	case "+", "-":
		return text, precAdd
	case "*", "/":
		return text, precMul
	}
	return "", 0
}

func exprPrec(e Expr) int {
	switch x := e.(type) {
	case *BinaryExpr:
		_, prec := binaryOp(x.Op)
		return prec
	case *UnaryExpr:
		if x.Op == "NOT" {
			return precNot
		}
		return precUnary
	}
	return precPrimary
}

// appendNode renders a statement, a table expression or an expression.
// parentPrec (parenthesization) matters to expressions only; bindings
// (positional qualifiers, see AppendExprPositional) is passed down everywhere.
func appendNode(dst []byte, n Node, parentPrec int, bindings []string) []byte {
	switch x := n.(type) {
	case *SelectStmt:
		bindings = visible(bindings, x.From)
		if x.SetOp != "" {
			for i, arm := range [2]*SelectStmt{x.SetLeft, x.SetRight} {
				if i == 1 {
					dst = append(dst, ' ')
					dst = append(dst, x.SetOp...)
					dst = append(dst, ' ')
				}
				// ORDER BY and LIMIT would bind to the whole chain, and the
				// chain associates to the left: such arms keep parentheses.
				paren := len(arm.OrderBy) > 0 || arm.Limit != nil || i == 1 && arm.SetOp != ""
				if paren {
					dst = append(dst, '(')
				}
				dst = appendNode(dst, arm, 0, bindings)
				if paren {
					dst = append(dst, ')')
				}
			}
		} else {
			dst = append(dst, "SELECT "...)
			if x.Distinct {
				dst = append(dst, "DISTINCT "...)
			}
			for i, it := range x.Items {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				switch {
				case it.Star && it.StarTable != "":
					dst = AppendIdent(dst, it.StarTable)
					dst = append(dst, ".*"...)
				case it.Star:
					dst = append(dst, '*')
				default:
					dst = appendNode(dst, it.Expr, 0, bindings)
					if it.Alias != "" {
						dst = append(dst, " AS "...)
						dst = AppendIdent(dst, it.Alias)
					}
				}
			}
			if x.From != nil {
				dst = append(dst, " FROM "...)
				dst = appendNode(dst, x.From, 0, bindings)
			}
			if x.Where != nil {
				dst = append(dst, " WHERE "...)
				dst = appendNode(dst, x.Where, 0, bindings)
			}
			if len(x.GroupBy) > 0 {
				dst = append(dst, " GROUP BY "...)
				for i, g := range x.GroupBy {
					if i > 0 {
						dst = append(dst, ", "...)
					}
					dst = appendNode(dst, g, 0, bindings)
				}
			}
			if x.Having != nil {
				dst = append(dst, " HAVING "...)
				dst = appendNode(dst, x.Having, 0, bindings)
			}
		}
		if len(x.OrderBy) > 0 {
			dst = append(dst, " ORDER BY "...)
			for i, o := range x.OrderBy {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				dst = appendNode(dst, o.Expr, 0, bindings)
				if o.Desc {
					dst = append(dst, " DESC"...)
				} else {
					dst = append(dst, " ASC"...)
				}
			}
		}
		if x.Limit != nil {
			dst = append(dst, " LIMIT "...)
			dst = strconv.AppendInt(dst, *x.Limit, 10)
		}
		return dst
	case *TableName:
		dst = AppendIdent(dst, x.Name)
		if x.Alias != "" {
			dst = append(dst, " AS "...)
			dst = AppendIdent(dst, x.Alias)
		}
		return dst
	case *JoinExpr:
		dst = appendNode(dst, x.Left, 0, bindings)
		dst = append(dst, ' ')
		dst = append(dst, x.Kind.String()...)
		dst = append(dst, ' ')
		if _, nested := x.Rite.(*JoinExpr); nested {
			dst = append(dst, '(')
			dst = appendNode(dst, x.Rite, 0, bindings)
			dst = append(dst, ')')
		} else {
			dst = appendNode(dst, x.Rite, 0, bindings)
		}
		if x.On != nil {
			dst = append(dst, " ON "...)
			dst = appendNode(dst, x.On, 0, bindings)
		}
		return dst
	case *SubqueryTable:
		dst = append(dst, '(')
		dst = appendNode(dst, x.Select, 0, bindings)
		dst = append(dst, ')')
		if x.Alias != "" {
			dst = append(dst, " AS "...)
			dst = AppendIdent(dst, x.Alias)
		}
		return dst
	}

	e, _ := n.(Expr)
	prec := exprPrec(e)
	paren := prec < parentPrec
	if paren {
		dst = append(dst, '(')
	}
	switch x := e.(type) {
	case *ColumnRef:
		if x.Table != "" {
			dst = AppendBinding(dst, x.Table, bindings)
			dst = append(dst, '.')
		}
		dst = AppendIdent(dst, x.Column)
	case *Literal:
		dst = appendLiteral(dst, x.Val)
	case *Param:
		dst = append(dst, '?')
	case *BinaryExpr:
		dst = appendNode(dst, x.L, prec, bindings)
		dst = append(dst, ' ')
		dst = append(dst, x.Op...)
		dst = append(dst, ' ')
		dst = appendNode(dst, x.R, prec+1, bindings)
	case *UnaryExpr:
		dst = append(dst, x.Op...)
		if x.Op == "NOT" {
			dst = append(dst, ' ')
		}
		dst = appendNode(dst, x.E, prec+1, bindings)
	case *IsNullExpr:
		dst = appendNode(dst, x.E, precCmp, bindings)
		if x.Negated {
			dst = append(dst, " IS NOT NULL"...)
		} else {
			dst = append(dst, " IS NULL"...)
		}
	case *InListExpr:
		dst = appendNode(dst, x.E, precCmp, bindings)
		if x.Negated {
			dst = append(dst, " NOT"...)
		}
		dst = append(dst, " IN ("...)
		for i, it := range x.List {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendNode(dst, it, 0, bindings)
		}
		dst = append(dst, ')')
	case *InSubquery:
		dst = appendNode(dst, x.E, precCmp, bindings)
		if x.Negated {
			dst = append(dst, " NOT"...)
		}
		dst = append(dst, " IN ("...)
		dst = appendNode(dst, x.Select, 0, bindings)
		dst = append(dst, ')')
	case *ExistsExpr:
		if x.Negated {
			dst = append(dst, "NOT "...)
		}
		dst = append(dst, "EXISTS ("...)
		dst = appendNode(dst, x.Select, 0, bindings)
		dst = append(dst, ')')
	case *ScalarSubquery:
		dst = append(dst, '(')
		dst = appendNode(dst, x.Select, 0, bindings)
		dst = append(dst, ')')
	case *TupleExpr:
		dst = append(dst, '(')
		for i, it := range x.Items {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendNode(dst, it, 0, bindings)
		}
		dst = append(dst, ')')
	case *FuncCall:
		dst = AppendIdent(dst, x.Name)
		dst = append(dst, '(')
		if x.Star {
			dst = append(dst, '*')
		} else {
			if x.Distinct {
				dst = append(dst, "DISTINCT "...)
			}
			for i, a := range x.Args {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				dst = appendNode(dst, a, 0, bindings)
			}
		}
		dst = append(dst, ')')
	case *CaseExpr:
		dst = append(dst, "CASE"...)
		for _, w := range x.Whens {
			dst = append(dst, " WHEN "...)
			dst = appendNode(dst, w.Cond, 0, bindings)
			dst = append(dst, " THEN "...)
			dst = appendNode(dst, w.Then, 0, bindings)
		}
		if x.Else != nil {
			dst = append(dst, " ELSE "...)
			dst = appendNode(dst, x.Else, 0, bindings)
		}
		dst = append(dst, " END"...)
	default:
		dst = append(dst, fmt.Sprintf("/*unknown expr %T*/", n)...)
	}
	if paren {
		dst = append(dst, ')')
	}
	return dst
}
