package sql

import (
	"fmt"
	"math"
	"strings"
)

// ParseDDL parses a sequence of CREATE TABLE statements into a Schema. The
// supported dialect covers what application schema dumps use:
//
//	CREATE TABLE name (
//	    col TYPE [NOT NULL] [PRIMARY KEY] [UNIQUE],
//	    ...,
//	    PRIMARY KEY (a, b),
//	    UNIQUE (a),
//	    FOREIGN KEY (a) REFERENCES other (b)
//	);
//
// Types map onto the engine's coarse kinds: INT/INTEGER/BIGINT/SMALLINT ->
// INT; FLOAT/REAL/DOUBLE/DECIMAL/NUMERIC -> FLOAT; BOOLEAN/BOOL -> BOOL;
// everything else (VARCHAR, TEXT, CHAR, DATE, TIMESTAMP, ...) -> STRING.
func ParseDDL(src string) (*Schema, error) {
	toks, err := lex(nil, src, math.MaxInt)
	if err != nil {
		return nil, err
	}
	p := &ddlParser{parser: parser{toks: toks, src: src, nodes: new(nodeSlabs)}}
	schema := NewSchema()
	for !p.at(tkEOF, "") {
		if p.accept(tkSymbol, ";") {
			continue
		}
		def, err := p.parseCreateTable()
		if err != nil {
			return nil, err
		}
		schema.AddTable(def)
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	return schema, nil
}

// MustParseDDL is ParseDDL that panics on error.
func MustParseDDL(src string) *Schema {
	s, err := ParseDDL(src)
	if err != nil {
		panic(fmt.Sprintf("sql.MustParseDDL: %v", err))
	}
	return s
}

type ddlParser struct {
	parser
	// inlineUniques collects per-table inline UNIQUE column markers.
	inlineUniques []string
}

// ident accepts an identifier or a non-reserved keyword used as a name.
func (p *ddlParser) ident() (string, error) {
	t := p.cur()
	if t.kind == tkIdent {
		p.idx++
		return t.text, nil
	}
	return "", p.errf("expected identifier, found %q", t.text)
}

func (p *ddlParser) expectWord(w string) error {
	t := p.cur()
	if (t.kind == tkIdent || t.kind == tkKeyword) && strings.EqualFold(t.text, w) {
		p.idx++
		return nil
	}
	return p.errf("expected %q, found %q", w, t.text)
}

func (p *ddlParser) acceptWord(w string) bool {
	t := p.cur()
	if (t.kind == tkIdent || t.kind == tkKeyword) && strings.EqualFold(t.text, w) {
		p.idx++
		return true
	}
	return false
}

func (p *ddlParser) parseCreateTable() (*TableDef, error) {
	if err := p.expectWord("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectWord("TABLE"); err != nil {
		return nil, err
	}
	p.acceptWord("IF") // IF NOT EXISTS
	p.acceptWord("NOT")
	p.acceptWord("EXISTS")
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	def := &TableDef{Name: name}
	p.inlineUniques = nil
	for {
		switch {
		case p.acceptWord("PRIMARY"):
			if err := p.expectWord("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseColumnList()
			if err != nil {
				return nil, err
			}
			def.PrimaryKey = cols
		case p.acceptWord("UNIQUE"):
			cols, err := p.parseColumnList()
			if err != nil {
				return nil, err
			}
			def.Uniques = append(def.Uniques, cols)
		case p.acceptWord("FOREIGN"):
			if err := p.expectWord("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseColumnList()
			if err != nil {
				return nil, err
			}
			if err := p.expectWord("REFERENCES"); err != nil {
				return nil, err
			}
			ref, err := p.ident()
			if err != nil {
				return nil, err
			}
			refCols, err := p.parseColumnList()
			if err != nil {
				return nil, err
			}
			def.ForeignKeys = append(def.ForeignKeys, ForeignKey{
				Columns: cols, RefTable: ref, RefColumns: refCols,
			})
		default:
			col, inlinePK, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			def.Columns = append(def.Columns, col)
			if inlinePK {
				def.PrimaryKey = []string{col.Name}
			}
		}
		if p.accept(tkSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	p.accept(tkSymbol, ";")
	for _, u := range p.inlineUniques {
		def.Uniques = append(def.Uniques, []string{u})
	}
	return def, nil
}

func (p *ddlParser) parseColumnList() ([]string, error) {
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	return cols, nil
}

func (p *ddlParser) parseColumnDef() (Column, bool, error) {
	name, err := p.ident()
	if err != nil {
		return Column{}, false, err
	}
	typeName, err := p.ident()
	if err != nil {
		return Column{}, false, p.errf("expected type for column %s", name)
	}
	// Optional length/precision: VARCHAR(255), DECIMAL(10, 2).
	if p.accept(tkSymbol, "(") {
		for !p.at(tkSymbol, ")") && !p.at(tkEOF, "") {
			p.idx++
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return Column{}, false, err
		}
	}
	col := Column{Name: name, Type: ddlType(typeName)}
	inlinePK := false
	for {
		switch {
		case p.acceptWord("NOT"):
			if err := p.expectWord("NULL"); err != nil {
				return Column{}, false, err
			}
			col.NotNull = true
		case p.acceptWord("NULL"):
			// explicit nullable: default
		case p.acceptWord("PRIMARY"):
			if err := p.expectWord("KEY"); err != nil {
				return Column{}, false, err
			}
			inlinePK = true
		case p.acceptWord("UNIQUE"):
			p.inlineUniques = append(p.inlineUniques, name)
		case p.acceptWord("DEFAULT"):
			// Skip one literal token.
			p.idx++
		default:
			return col, inlinePK, nil
		}
	}
}

// FormatDDL renders a schema as CREATE TABLE statements in the exact dialect
// ParseDDL accepts, so schemas round-trip through text. Repro artifacts and
// golden tests rely on FormatDDL(ParseDDL(x)) being a fixed point.
func FormatDDL(s *Schema) string {
	var b strings.Builder
	for _, name := range s.TableNames() {
		def, _ := s.Table(name)
		fmt.Fprintf(&b, "CREATE TABLE %s (\n", def.Name)
		var lines []string
		for _, c := range def.Columns {
			l := "    " + c.Name + " " + ddlTypeName(c.Type)
			if c.NotNull {
				l += " NOT NULL"
			}
			lines = append(lines, l)
		}
		if len(def.PrimaryKey) > 0 {
			lines = append(lines, "    PRIMARY KEY ("+strings.Join(def.PrimaryKey, ", ")+")")
		}
		for _, u := range def.Uniques {
			lines = append(lines, "    UNIQUE ("+strings.Join(u, ", ")+")")
		}
		for _, fk := range def.ForeignKeys {
			lines = append(lines, fmt.Sprintf("    FOREIGN KEY (%s) REFERENCES %s (%s)",
				strings.Join(fk.Columns, ", "), fk.RefTable, strings.Join(fk.RefColumns, ", ")))
		}
		b.WriteString(strings.Join(lines, ",\n"))
		b.WriteString("\n);\n")
	}
	return b.String()
}

// ddlTypeName maps a coarse column type back onto a canonical DDL spelling
// that ddlType parses to the same type.
func ddlTypeName(t ColumnType) string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TBool:
		return "BOOLEAN"
	default:
		return "VARCHAR"
	}
}

// ddlType maps a declared SQL type name onto the engine's coarse kinds.
func ddlType(name string) ColumnType {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT", "SERIAL", "BIGSERIAL":
		return TInt
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC":
		return TFloat
	case "BOOLEAN", "BOOL":
		return TBool
	default:
		return TString
	}
}
