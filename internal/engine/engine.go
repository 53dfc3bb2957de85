// Package engine is WeTune's execution substrate: an in-memory SQL engine
// with hash indexes and a cardinality-based cost estimator. It stands in for
// the MS SQL Server testbed of §8.1 — queries and their rewrites execute on
// the same storage, so the relative effects of rewrite rules (row visits,
// operator invocations, subquery re-executions) are directly observable.
package engine

import (
	"fmt"
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
	cols []int // column positions
	m    map[string][]int
}

// DB is an in-memory database instance over a schema.
type DB struct {
	Schema *sql.Schema
	tables map[string]*Table

	// Stats counts work done by the executor, for white-box tests.
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
	ix := &hashIndex{cols: pos, m: map[string][]int{}}
	for ri, row := range t.Rows {
		k := row.Key(pos)
		ix.m[k] = append(ix.m[k], ri)
	}
	t.indexes[strings.Join(cols, ",")] = ix
	return nil
}

// Key encodes the values of r at pos, or all of r when pos is nil, as one
// string; values that are Equal encode alike (Int 2 and Float 2.0 both as
// "2"). Hash indexes, joins, groups, DISTINCT, UNION and IN key rows with
// it, and difftest compares bags of it.
func (r Row) Key(pos []int) string {
	var b strings.Builder
	put := func(v sql.Value) {
		b.WriteString(v.String())
		b.WriteByte('|')
	}
	if pos == nil {
		for _, v := range r {
			put(v)
		}
	}
	for _, p := range pos {
		put(r[p])
	}
	return b.String()
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
	ri := len(t.Rows)
	for key, ix := range t.indexes {
		k := row.Key(ix.cols)
		if len(ix.m[k]) > 0 && t.Def.IsUnique(strings.Split(key, ",")) {
			return fmt.Errorf("engine: duplicate key %s on %s(%s)", k, table, key)
		}
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
