// Package sql provides the SQL front end shared by the rest of WeTune:
// runtime values, schema/catalog metadata, a lexer and recursive-descent
// parser for the dialect the paper exercises, and an AST printer that turns
// parsed (or rewritten) statements back into SQL text.
package sql

import (
	"fmt"
	"strconv"
)

// ValueKind discriminates the runtime representation of a SQL value.
type ValueKind int

// The value kinds supported by the engine. NULL is modeled explicitly so the
// three-valued-logic behaviour described in §5.1.1 of the paper can be
// exercised end to end.
const (
	KindNull ValueKind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

func (k ValueKind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	}
	return fmt.Sprintf("ValueKind(%d)", int(k))
}

// Value is a dynamically typed SQL value. The zero Value is NULL.
type Value struct {
	Kind ValueKind
	I    int64
	F    float64
	S    string
	B    bool
}

// Null is the SQL NULL value.
var Null = Value{Kind: KindNull}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{Kind: KindInt, I: i} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{Kind: KindFloat, F: f} }

// NewString returns a string value.
func NewString(s string) Value { return Value{Kind: KindString, S: s} }

// NewBool returns a boolean value.
func NewBool(b bool) Value { return Value{Kind: KindBool, B: b} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Equal reports whether two values are identical under SQL value equality,
// ignoring three-valued logic: NULL.Equal(NULL) is true. Callers that need
// SQL comparison semantics (NULL = NULL -> unknown) must check IsNull first;
// Compare3VL below does that.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		// Allow int/float cross comparison.
		if v.Kind == KindInt && o.Kind == KindFloat {
			return float64(v.I) == o.F
		}
		if v.Kind == KindFloat && o.Kind == KindInt {
			return v.F == float64(o.I)
		}
		return false
	}
	switch v.Kind {
	case KindNull:
		return true
	case KindInt:
		return v.I == o.I
	case KindFloat:
		return v.F == o.F
	case KindString:
		return v.S == o.S
	case KindBool:
		return v.B == o.B
	}
	return false
}

// Compare orders two non-NULL values; it returns -1, 0 or +1. NULLs sort
// first so that ORDER BY has a deterministic total order.
func (v Value) Compare(o Value) int {
	if v.IsNull() || o.IsNull() {
		switch {
		case v.IsNull() && o.IsNull():
			return 0
		case v.IsNull():
			return -1
		default:
			return 1
		}
	}
	num := func(x Value) (float64, bool) {
		switch x.Kind {
		case KindInt:
			return float64(x.I), true
		case KindFloat:
			return x.F, true
		case KindBool:
			if x.B {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	}
	if a, ok := num(v); ok {
		if b, ok2 := num(o); ok2 {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}
	}
	as, bs := v.String(), o.String()
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	}
	return 0
}

// Bool3 is SQL three-valued logic.
type Bool3 int

// Three-valued truth values.
const (
	False3 Bool3 = iota
	True3
	Unknown3
)

// And3 implements three-valued AND.
func And3(a, b Bool3) Bool3 {
	if a == False3 || b == False3 {
		return False3
	}
	if a == True3 && b == True3 {
		return True3
	}
	return Unknown3
}

// Or3 implements three-valued OR.
func Or3(a, b Bool3) Bool3 {
	if a == True3 || b == True3 {
		return True3
	}
	if a == False3 && b == False3 {
		return False3
	}
	return Unknown3
}

// Not3 implements three-valued NOT.
func Not3(a Bool3) Bool3 {
	switch a {
	case True3:
		return False3
	case False3:
		return True3
	}
	return Unknown3
}

// FromBool lifts a Go bool to Bool3.
func FromBool(b bool) Bool3 {
	if b {
		return True3
	}
	return False3
}

// Compare3VL compares two values under SQL semantics for the given operator
// ("=", "<>", "<", "<=", ">", ">="). Any NULL operand yields Unknown3.
func Compare3VL(op string, a, b Value) Bool3 {
	if a.IsNull() || b.IsNull() {
		return Unknown3
	}
	switch op {
	case "=":
		return FromBool(a.Equal(b))
	case "<>", "!=":
		return FromBool(!a.Equal(b))
	}
	c := a.Compare(b)
	switch op {
	case "<":
		return FromBool(c < 0)
	case "<=":
		return FromBool(c <= 0)
	case ">":
		return FromBool(c > 0)
	case ">=":
		return FromBool(c >= 0)
	}
	return Unknown3
}

// String renders the value as a SQL literal.
func (v Value) String() string {
	var buf [64]byte
	return string(appendValue(buf[:0], v))
}

// appendValue appends the SQL literal String returns for v to dst.
func appendValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case KindString:
		dst = append(dst, '\'')
		dst = append(dst, v.S...)
		return append(dst, '\'')
	case KindBool:
		if v.B {
			return append(dst, "TRUE"...)
		}
		return append(dst, "FALSE"...)
	}
	return append(dst, '?')
}
