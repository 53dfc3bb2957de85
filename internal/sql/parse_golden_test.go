package sql_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"wetune/internal/sql"
	"wetune/internal/workload"
)

// parseGoldenSHA256 pins what the parser makes of every input of
// parseGoldenInputs: the full AST of each statement it accepts and the exact
// message and offset of each it refuses. A change to the grammar's code that
// is meant to keep the language must keep this hash.
const parseGoldenSHA256 = "a239379aaf6bff580e6e0a9bfa56a7a026f0c85203b76107b9cdccf6649809e2"

// parseGoldenInputs is every statement the workload generator writes for each
// application (2,000 per app), the rewrite corpus, and randomTokenStrings.
func parseGoldenInputs() []string {
	var in []string
	for _, app := range workload.Apps() {
		for _, q := range workload.GenerateQueries(app, 2000) {
			in = append(in, q.SQL)
		}
	}
	_, items := workload.RewriteCorpus(100)
	for _, it := range items {
		in = append(in, it.SQL)
	}
	return append(in, randomTokenStrings(300000, 1)...)
}

// randomTokenStrings draws n expressions after a prefix that puts the parser
// inside one. They alternate operands, which may carry prefixes (NOT, minus,
// an open parenthesis), with operators, which may follow a predicate suffix
// (IS NULL, IN, BETWEEN …); one token in ten is drawn from everything
// instead. So most of them are near-misses of the grammar, and operator
// precedence, predicates and their errors are what gets exercised.
func randomTokenStrings(n int, seed int64) []string {
	prefixes := []string{
		"SELECT ", "SELECT a FROM t WHERE ", "SELECT a FROM t WHERE ",
		"SELECT * FROM t WHERE a IN (SELECT b FROM u WHERE ",
		"SELECT a FROM t JOIN u ON ", "SELECT a FROM t GROUP BY a HAVING ",
	}
	operands := []string{"a", "b", "t.c", "1", "2.5", "'s'", "?", "NULL", "TRUE", "COUNT(*)", "(SELECT 1)"}
	before := []string{"NOT", "-", "(", "EXISTS (SELECT a FROM u WHERE", "CASE WHEN"}
	after := []string{")", "IS NULL", "IS NOT NULL", "IN (1, 2)", "NOT IN (SELECT b FROM u)",
		"BETWEEN 1 AND", "NOT BETWEEN", "NOT LIKE", "THEN 1 END"}
	operators := []string{"=", "<>", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/",
		"AND", "AND", "OR", "OR", "LIKE"}
	var all []string
	for _, l := range [][]string{operands, before, after, operators, {",", "NOT", "IN", "IS", "EXISTS", "SELECT", "FROM", "AS"}} {
		all = append(all, l...)
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func(l []string) string {
		if rng.Intn(10) == 0 {
			l = all
		}
		return l[rng.Intn(len(l))]
	}
	out := make([]string, n)
	var b strings.Builder
	for i := range out {
		b.Reset()
		b.WriteString(prefixes[rng.Intn(len(prefixes))])
		for k := 1 + rng.Intn(6); k > 0; k-- {
			for j := rng.Intn(3); j > 0; j-- {
				b.WriteString(pick(before) + " ")
			}
			b.WriteString(pick(operands) + " ")
			if rng.Intn(3) == 0 {
				b.WriteString(pick(after) + " ")
			}
			if k > 1 {
				b.WriteString(pick(operators) + " ")
			}
		}
		out[i] = b.String()
	}
	return out
}

// dumpValue writes v with every pointer and interface followed, so two
// values dump alike exactly when reflect.DeepEqual holds for acyclic trees.
func dumpValue(dst []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return append(dst, "nil"...)
		}
		if v.Kind() == reflect.Pointer {
			dst = append(dst, '&')
		}
		return dumpValue(dst, v.Elem())
	case reflect.Struct:
		dst = append(dst, v.Type().Name()...)
		dst = append(dst, '{')
		for i := 0; i < v.NumField(); i++ {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = dumpValue(dst, v.Field(i))
		}
		return append(dst, '}')
	case reflect.Slice:
		if v.IsNil() {
			return append(dst, "nil"...)
		}
		dst = append(dst, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = dumpValue(dst, v.Index(i))
		}
		return append(dst, ']')
	case reflect.String:
		return strconv.AppendQuote(dst, v.String())
	case reflect.Bool:
		return strconv.AppendBool(dst, v.Bool())
	case reflect.Int, reflect.Int64:
		return strconv.AppendInt(dst, v.Int(), 10)
	case reflect.Float64:
		return strconv.AppendFloat(dst, v.Float(), 'g', -1, 64)
	}
	panic("dumpValue: unexpected kind " + v.Kind().String())
}

// TestParseGolden hashes the parser's answer to every input of
// parseGoldenInputs against parseGoldenSHA256.
func TestParseGolden(t *testing.T) {
	h := sha256.New()
	var buf []byte
	for _, q := range parseGoldenInputs() {
		buf = append(buf[:0], q...)
		buf = append(buf, '\n')
		stmt, err := sql.Parse(q)
		if err != nil {
			buf = append(buf, err.Error()...)
		} else {
			buf = dumpValue(buf, reflect.ValueOf(stmt))
		}
		buf = append(buf, '\n')
		h.Write(buf)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != parseGoldenSHA256 {
		t.Errorf("parse golden = %s, want %s", got, parseGoldenSHA256)
	}
}
