package engine

import (
	"fmt"

	"wetune/internal/plan"
	"wetune/internal/sql"
)

// truth converts a value to three-valued logic (NULL -> unknown).
func truth(v sql.Value) sql.Bool3 {
	switch v.Kind {
	case sql.KindNull:
		return sql.Unknown3
	case sql.KindBool:
		return sql.FromBool(v.B)
	case sql.KindInt:
		return sql.FromBool(v.I != 0)
	case sql.KindFloat:
		return sql.FromBool(v.F != 0)
	}
	return sql.Unknown3
}

func bool3Value(b sql.Bool3) sql.Value {
	switch b {
	case sql.True3:
		return sql.NewBool(true)
	case sql.False3:
		return sql.NewBool(false)
	}
	return sql.Null
}

// evalBool evaluates a predicate under three-valued logic.
func (ex *executor) evalBool(e sql.Expr, env *rowEnv) (sql.Bool3, error) {
	switch x := e.(type) {
	case *sql.BinaryExpr:
		switch x.Op {
		case "AND":
			l, err := ex.evalBool(x.L, env)
			if err != nil {
				return sql.False3, err
			}
			if l == sql.False3 {
				return sql.False3, nil
			}
			r, err := ex.evalBool(x.R, env)
			if err != nil {
				return sql.False3, err
			}
			return sql.And3(l, r), nil
		case "OR":
			l, err := ex.evalBool(x.L, env)
			if err != nil {
				return sql.False3, err
			}
			if l == sql.True3 {
				return sql.True3, nil
			}
			r, err := ex.evalBool(x.R, env)
			if err != nil {
				return sql.False3, err
			}
			return sql.Or3(l, r), nil
		case "=", "<>", "<", "<=", ">", ">=":
			l, err := ex.evalExpr(x.L, env)
			if err != nil {
				return sql.False3, err
			}
			r, err := ex.evalExpr(x.R, env)
			if err != nil {
				return sql.False3, err
			}
			return sql.Compare3VL(x.Op, l, r), nil
		case "LIKE":
			l, err := ex.evalExpr(x.L, env)
			if err != nil {
				return sql.False3, err
			}
			r, err := ex.evalExpr(x.R, env)
			if err != nil {
				return sql.False3, err
			}
			if l.IsNull() || r.IsNull() {
				return sql.Unknown3, nil
			}
			return sql.FromBool(likeMatch(l.S, r.S)), nil
		}
	case *sql.UnaryExpr:
		if x.Op == "NOT" {
			v, err := ex.evalBool(x.E, env)
			if err != nil {
				return sql.False3, err
			}
			return sql.Not3(v), nil
		}
	case *sql.IsNullExpr:
		v, err := ex.evalExpr(x.E, env)
		if err != nil {
			return sql.False3, err
		}
		res := sql.FromBool(v.IsNull())
		if x.Negated {
			res = sql.Not3(res)
		}
		return res, nil
	case *sql.InListExpr:
		v, err := ex.evalExpr(x.E, env)
		if err != nil {
			return sql.False3, err
		}
		if v.IsNull() {
			return sql.Unknown3, nil
		}
		found := false
		sawNull := false
		for _, it := range x.List {
			iv, err := ex.evalExpr(it, env)
			if err != nil {
				return sql.False3, err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if v.Equal(iv) {
				found = true
				break
			}
		}
		res := sql.FromBool(found)
		if !found && sawNull {
			res = sql.Unknown3
		}
		if x.Negated {
			res = sql.Not3(res)
		}
		return res, nil
	case *sql.InSubquery:
		return ex.evalInSubquery(x, env)
	case *sql.ExistsExpr:
		res, err := ex.subqueryResult(x.Select, env)
		if err != nil {
			return sql.False3, err
		}
		out := sql.FromBool(len(res.Rows) > 0)
		if x.Negated {
			out = sql.Not3(out)
		}
		return out, nil
	}
	// Fall back to generic evaluation + truthiness.
	v, err := ex.evalExpr(e, env)
	if err != nil {
		return sql.False3, err
	}
	return truth(v), nil
}

func (ex *executor) evalInSubquery(x *sql.InSubquery, env *rowEnv) (sql.Bool3, error) {
	res, err := ex.subqueryResult(x.Select, env)
	if err != nil {
		return sql.False3, err
	}
	var left []sql.Value
	switch e := x.E.(type) {
	case *sql.TupleExpr:
		for _, it := range e.Items {
			v, err := ex.evalExpr(it, env)
			if err != nil {
				return sql.False3, err
			}
			left = append(left, v)
		}
	default:
		v, err := ex.evalExpr(x.E, env)
		if err != nil {
			return sql.False3, err
		}
		left = []sql.Value{v}
	}
	for _, v := range left {
		if v.IsNull() {
			return sql.Unknown3, nil
		}
	}
	found := false
	sawNull := false
	for _, row := range res.Rows {
		if len(row) != len(left) {
			return sql.False3, fmt.Errorf("engine: IN subquery arity mismatch")
		}
		match := true
		for i, v := range left {
			if row[i].IsNull() {
				sawNull = true
				match = false
				break
			}
			if !v.Equal(row[i]) {
				match = false
				break
			}
		}
		if match {
			found = true
			break
		}
	}
	out := sql.FromBool(found)
	if !found && sawNull {
		out = sql.Unknown3
	}
	if x.Negated {
		out = sql.Not3(out)
	}
	return out, nil
}

// subqueryResult executes a predicate-level subquery. Each one is planned
// once per statement execution, against the column lists of env's chain,
// innermost first; one that reads no enclosing row runs once and its result
// is reused.
func (ex *executor) subqueryResult(stmt *sql.SelectStmt, env *rowEnv) (*Result, error) {
	sub, ok := ex.subs[stmt]
	if !ok {
		var scopes [][]plan.ColRef
		for e := env; e != nil; e = e.parent {
			scopes = append(scopes, e.cols)
		}
		p, correlated, err := plan.BuildCorrelated(stmt, ex.db.Schema, scopes)
		if err != nil {
			return nil, fmt.Errorf("engine: subquery: %w", err)
		}
		ex.db.Stats.SubqueryPlans++
		sub = &subquery{plan: p, correlated: correlated}
		ex.subs[stmt] = sub
	}
	if sub.res != nil {
		return sub.res, nil
	}
	ex.db.Stats.SubqueryExecs++
	res, err := ex.exec(sub.plan, env)
	if err != nil {
		return nil, err
	}
	if !sub.correlated {
		sub.res = res
	}
	return res, nil
}

// evalExpr evaluates a scalar expression.
func (ex *executor) evalExpr(e sql.Expr, env *rowEnv) (sql.Value, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return x.Val, nil
	case *sql.Param:
		if x.Index < 0 || x.Index >= len(ex.params) {
			return sql.Null, fmt.Errorf("engine: missing parameter %d", x.Index)
		}
		return ex.params[x.Index], nil
	case *sql.ColumnRef:
		if env == nil {
			return sql.Null, fmt.Errorf("engine: column %s.%s outside row context", x.Table, x.Column)
		}
		v, ok := env.resolve(x.Table, x.Column)
		if !ok {
			return sql.Null, fmt.Errorf("engine: unresolved column %s.%s", x.Table, x.Column)
		}
		return v, nil
	case *sql.BinaryExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			l, err := ex.evalExpr(x.L, env)
			if err != nil {
				return sql.Null, err
			}
			r, err := ex.evalExpr(x.R, env)
			if err != nil {
				return sql.Null, err
			}
			return arith(x.Op, l, r)
		default:
			b, err := ex.evalBool(x, env)
			if err != nil {
				return sql.Null, err
			}
			return bool3Value(b), nil
		}
	case *sql.UnaryExpr:
		if x.Op == "-" {
			v, err := ex.evalExpr(x.E, env)
			if err != nil {
				return sql.Null, err
			}
			return arith("-", sql.NewInt(0), v)
		}
		b, err := ex.evalBool(x, env)
		if err != nil {
			return sql.Null, err
		}
		return bool3Value(b), nil
	case *sql.ScalarSubquery:
		res, err := ex.subqueryResult(x.Select, env)
		if err != nil {
			return sql.Null, err
		}
		if len(res.Rows) == 0 {
			return sql.Null, nil
		}
		if len(res.Rows[0]) != 1 {
			return sql.Null, fmt.Errorf("engine: scalar subquery returns %d columns", len(res.Rows[0]))
		}
		return res.Rows[0][0], nil
	case *sql.CaseExpr:
		for _, w := range x.Whens {
			c, err := ex.evalBool(w.Cond, env)
			if err != nil {
				return sql.Null, err
			}
			if c == sql.True3 {
				return ex.evalExpr(w.Then, env)
			}
		}
		if x.Else != nil {
			return ex.evalExpr(x.Else, env)
		}
		return sql.Null, nil
	case *sql.FuncCall:
		// An aggregate call computes over the group of an aggregate's env
		// (HAVING); anywhere else it is an error.
		if !sql.AggregateFuncs[x.Name] || env == nil || env.group == nil {
			return sql.Null, fmt.Errorf("engine: function %s outside aggregation context", x.Name)
		}
		item := plan.AggItem{Func: x.Name, Star: x.Star, Distinct: x.Distinct}
		if !x.Star && len(x.Args) == 1 {
			item.Arg = x.Args[0]
		}
		return ex.aggValue(item, env)
	case *sql.IsNullExpr, *sql.InListExpr, *sql.InSubquery, *sql.ExistsExpr, *sql.TupleExpr:
		b, err := ex.evalBool(e, env)
		if err != nil {
			return sql.Null, err
		}
		return bool3Value(b), nil
	}
	return sql.Null, fmt.Errorf("engine: cannot evaluate %T", e)
}

func arith(op string, l, r sql.Value) (sql.Value, error) {
	if l.IsNull() || r.IsNull() {
		return sql.Null, nil
	}
	num := func(v sql.Value) (float64, bool, error) {
		switch v.Kind {
		case sql.KindInt:
			return float64(v.I), true, nil
		case sql.KindFloat:
			return v.F, false, nil
		}
		return 0, false, fmt.Errorf("engine: arithmetic on %s", v.Kind)
	}
	lf, lInt, err := num(l)
	if err != nil {
		return sql.Null, err
	}
	rf, rInt, err := num(r)
	if err != nil {
		return sql.Null, err
	}
	var out float64
	switch op {
	case "+":
		out = lf + rf
	case "-":
		out = lf - rf
	case "*":
		out = lf * rf
	case "/":
		if rf == 0 {
			return sql.Null, nil
		}
		out = lf / rf
	}
	if lInt && rInt && op != "/" {
		return sql.NewInt(int64(out)), nil
	}
	return sql.NewFloat(out), nil
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) bool {
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	if p == "" {
		return s == ""
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeRec(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && likeRec(s[1:], p[1:])
	default:
		return s != "" && s[0] == p[0] && likeRec(s[1:], p[1:])
	}
}
