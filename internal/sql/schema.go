package sql

import (
	"fmt"
	"sort"
	"strings"
)

// ColumnType is a coarse SQL column type, sufficient for data generation and
// integrity-constraint reasoning.
type ColumnType int

// Column types.
const (
	TInt ColumnType = iota
	TFloat
	TString
	TBool
)

func (t ColumnType) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "VARCHAR"
	case TBool:
		return "BOOLEAN"
	}
	return "?"
}

// Column describes one table column.
type Column struct {
	Name    string
	Type    ColumnType
	NotNull bool
}

// ForeignKey records that Columns of the owning table reference RefColumns of
// RefTable. It backs the RefAttrs constraint of §4.2.
type ForeignKey struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// TableDef is the schema of one table, including the integrity constraints
// WeTune's constraint language (Unique, NotNull, RefAttrs) draws from.
type TableDef struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string   // also unique + not null
	Uniques     [][]string // additional unique keys
	ForeignKeys []ForeignKey
}

// Schema is a named collection of table definitions.
type Schema struct {
	Tables map[string]*TableDef
	order  []string
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{Tables: map[string]*TableDef{}}
}

// AddTable registers t, replacing any previous definition with the same name.
func (s *Schema) AddTable(t *TableDef) {
	if _, ok := s.Tables[t.Name]; !ok {
		s.order = append(s.order, t.Name)
	}
	s.Tables[t.Name] = t
}

// Table looks a table up by name.
func (s *Schema) Table(name string) (*TableDef, bool) {
	t, ok := s.Tables[name]
	return t, ok
}

// TableNames returns table names in insertion order.
func (s *Schema) TableNames() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Column returns the column definition, or false when absent.
func (t *TableDef) Column(name string) (Column, bool) {
	for _, c := range t.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return Column{}, false
}

// ColumnIndex returns the position of a column, or -1.
func (t *TableDef) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// IsNotNull reports whether every named column is declared NOT NULL (primary
// key columns are implicitly NOT NULL).
func (t *TableDef) IsNotNull(cols []string) bool {
	if len(cols) == 0 {
		return false
	}
	for _, name := range cols {
		c, ok := t.Column(name)
		if !ok {
			return false
		}
		if c.NotNull {
			continue
		}
		if containsAll(t.PrimaryKey, []string{name}) {
			continue
		}
		return false
	}
	return true
}

// IsUnique reports whether the named column list contains a unique key of the
// table (a superset of a unique key is still unique).
func (t *TableDef) IsUnique(cols []string) bool {
	if len(cols) == 0 {
		return false
	}
	if len(t.PrimaryKey) > 0 && containsAll(cols, t.PrimaryKey) {
		return true
	}
	for _, u := range t.Uniques {
		if len(u) > 0 && containsAll(cols, u) {
			return true
		}
	}
	return false
}

// References reports whether cols of this table reference refCols of refTable
// via a declared foreign key (order-insensitive column pairing is not
// attempted: FK column order must match).
func (t *TableDef) References(cols []string, refTable string, refCols []string) bool {
	for _, fk := range t.ForeignKeys {
		if fk.RefTable != refTable {
			continue
		}
		if equalStrings(fk.Columns, cols) && equalStrings(fk.RefColumns, refCols) {
			return true
		}
	}
	return false
}

// Validate checks internal consistency: key/FK columns must exist, FK targets
// must exist and be unique on the referenced side.
func (s *Schema) Validate() error {
	for _, name := range s.order {
		t := s.Tables[name]
		seen := map[string]bool{}
		for _, c := range t.Columns {
			if seen[c.Name] {
				return fmt.Errorf("table %s: duplicate column %s", name, c.Name)
			}
			seen[c.Name] = true
		}
		for _, pk := range t.PrimaryKey {
			if !seen[pk] {
				return fmt.Errorf("table %s: primary key column %s not declared", name, pk)
			}
		}
		for _, u := range t.Uniques {
			for _, c := range u {
				if !seen[c] {
					return fmt.Errorf("table %s: unique column %s not declared", name, c)
				}
			}
		}
		for _, fk := range t.ForeignKeys {
			ref, ok := s.Tables[fk.RefTable]
			if !ok {
				return fmt.Errorf("table %s: foreign key references unknown table %s", name, fk.RefTable)
			}
			if len(fk.Columns) != len(fk.RefColumns) || len(fk.Columns) == 0 {
				return fmt.Errorf("table %s: malformed foreign key to %s", name, fk.RefTable)
			}
			for _, c := range fk.Columns {
				if !seen[c] {
					return fmt.Errorf("table %s: foreign key column %s not declared", name, c)
				}
			}
			for _, c := range fk.RefColumns {
				if _, ok := ref.Column(c); !ok {
					return fmt.Errorf("table %s: foreign key target column %s.%s not declared", name, fk.RefTable, c)
				}
			}
			if !ref.IsUnique(fk.RefColumns) {
				return fmt.Errorf("table %s: foreign key target %s(%s) is not unique", name, fk.RefTable, strings.Join(fk.RefColumns, ","))
			}
		}
	}
	return nil
}

func containsAll(haystack, needles []string) bool {
	for _, n := range needles {
		found := false
		for _, h := range haystack {
			if h == n {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SortedTableNames returns table names sorted lexicographically; handy for
// deterministic iteration in tests and benchmarks.
func (s *Schema) SortedTableNames() []string {
	out := s.TableNames()
	sort.Strings(out)
	return out
}
