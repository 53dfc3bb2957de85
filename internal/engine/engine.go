// Package engine is WeTune's execution substrate: an in-memory SQL engine
// with hash indexes. It stands in for the MS SQL Server testbed of §8.1 —
// queries and their rewrites execute on the same storage, so the relative
// effects of rewrite rules (row visits, operator invocations, subquery
// re-executions) are directly observable.
package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"wetune/internal/plan"
	"wetune/internal/sql"
)

// Row is one tuple.
type Row []sql.Value

// Table is in-memory storage for one relation.
type Table struct {
	Def     *sql.TableDef
	Rows    []Row
	indexes map[string]*hashIndex
}

type hashIndex struct {
	cols   []int // column positions
	unique bool  // the columns are a primary or declared unique key
	m      map[string][]int
}

// DB is an in-memory database instance over a schema.
type DB struct {
	Schema *sql.Schema
	tables map[string]*Table

	// Stats counts work done by the executor. RowsVisited is how E8 and the
	// rewrite tests measure what a rewrite saves.
	Stats ExecStats
}

// ExecStats tallies executor effort.
type ExecStats struct {
	RowsVisited   int64
	IndexLookups  int64
	SubqueryExecs int64
	SubqueryPlans int64 // predicate subqueries planned: one per statement execution each
	SortedRows    int64
}

// NewDB creates an empty database for the schema and builds hash indexes on
// every primary key and declared unique key.
func NewDB(schema *sql.Schema) *DB {
	db := &DB{Schema: schema, tables: map[string]*Table{}}
	for _, name := range schema.TableNames() {
		def, _ := schema.Table(name)
		t := &Table{Def: def, indexes: map[string]*hashIndex{}}
		db.tables[name] = t
		if len(def.PrimaryKey) > 0 {
			db.CreateIndex(name, def.PrimaryKey)
		}
		for _, u := range def.Uniques {
			db.CreateIndex(name, u)
		}
	}
	return db
}

// Table returns the storage for a table.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// CreateIndex builds a hash index over the named columns.
func (db *DB) CreateIndex(table string, cols []string) error {
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("engine: unknown table %q", table)
	}
	pos := make([]int, len(cols))
	for i, c := range cols {
		idx := t.Def.ColumnIndex(c)
		if idx < 0 {
			return fmt.Errorf("engine: unknown column %s.%s", table, c)
		}
		pos[i] = idx
	}
	ix := &hashIndex{cols: pos, unique: t.Def.IsUnique(cols), m: map[string][]int{}}
	for ri, row := range t.Rows {
		k := row.Key(pos)
		ix.m[k] = append(ix.m[k], ri)
	}
	t.indexes[strings.Join(cols, ",")] = ix
	return nil
}

// Key encodes the values of r at pos, or all of r when pos is nil, as one
// string. Two rows share a key exactly when their values are pairwise equal
// under SQL's grouping equality: NULL with NULL, and Int 1 with Float 1.0
// (both encode as "1", as Value.Equal has them equal). Each value is written
// as a literal followed by '|'; a string is quoted with its quotes doubled,
// so no string can end early or swallow the separator, and no other kind
// writes a quote. Hash indexes, joins, groups, DISTINCT, UNION and IN key
// rows with it, and difftest compares bags of it.
func (r Row) Key(pos []int) string {
	var buf [64]byte
	b := buf[:0]
	if pos == nil {
		for _, v := range r {
			b = appendKey(b, v)
		}
	}
	for _, p := range pos {
		b = appendKey(b, r[p])
	}
	return string(b)
}

// appendKey appends v's part of a row key.
func appendKey(b []byte, v sql.Value) []byte {
	switch v.Kind {
	case sql.KindNull:
		b = append(b, "NULL"...)
	case sql.KindInt:
		b = strconv.AppendInt(b, v.I, 10)
	case sql.KindFloat:
		// An integral float writes as the Int it equals; 2^53 bounds the
		// integers a float holds exactly.
		if f := v.F; f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			b = strconv.AppendInt(b, int64(f), 10)
		} else {
			b = strconv.AppendFloat(b, f, 'g', -1, 64)
		}
	case sql.KindString:
		b = append(b, '\'')
		for i := 0; i < len(v.S); i++ {
			if v.S[i] == '\'' {
				b = append(b, '\'')
			}
			b = append(b, v.S[i])
		}
		b = append(b, '\'')
	case sql.KindBool:
		if v.B {
			b = append(b, "TRUE"...)
		} else {
			b = append(b, "FALSE"...)
		}
	}
	return append(b, '|')
}

// hasNull reports whether r holds NULL at pos, or anywhere when pos is nil.
func (r Row) hasNull(pos []int) bool {
	if pos == nil {
		for _, v := range r {
			if v.IsNull() {
				return true
			}
		}
	}
	for _, p := range pos {
		if r[p].IsNull() {
			return true
		}
	}
	return false
}

// Insert appends a row, maintaining indexes and enforcing NOT NULL and
// single-column uniqueness (enough integrity for the synthetic workloads).
func (db *DB) Insert(table string, row Row) error {
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("engine: unknown table %q", table)
	}
	if len(row) != len(t.Def.Columns) {
		return fmt.Errorf("engine: %s expects %d columns, got %d", table, len(t.Def.Columns), len(row))
	}
	for i, col := range t.Def.Columns {
		notNull := col.NotNull
		for _, pk := range t.Def.PrimaryKey {
			if pk == col.Name {
				notNull = true
			}
		}
		if notNull && row[i].IsNull() {
			return fmt.Errorf("engine: NULL in NOT NULL column %s.%s", table, col.Name)
		}
	}
	// Every unique index is checked before any index changes, so a rejected
	// row leaves no entry behind.
	for key, ix := range t.indexes {
		if k := row.Key(ix.cols); ix.unique && len(ix.m[k]) > 0 {
			return fmt.Errorf("engine: duplicate key %s on %s(%s)", k, table, key)
		}
	}
	ri := len(t.Rows)
	for _, ix := range t.indexes {
		k := row.Key(ix.cols)
		ix.m[k] = append(ix.m[k], ri)
	}
	t.Rows = append(t.Rows, row)
	return nil
}

// MustInsert is Insert that panics on error (data generators use it).
func (db *DB) MustInsert(table string, row Row) {
	if err := db.Insert(table, row); err != nil {
		panic(err)
	}
}

// RowCount returns the number of rows in a table (0 if absent).
func (db *DB) RowCount(table string) int {
	if t, ok := db.tables[table]; ok {
		return len(t.Rows)
	}
	return 0
}

// Result pairs executed rows with their column layout.
type Result struct {
	Cols []plan.ColRef
	Rows []Row
}
