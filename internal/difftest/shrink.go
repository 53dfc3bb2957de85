package difftest

import (
	"wetune/internal/engine"
	"wetune/internal/plan"
	"wetune/internal/sql"
)

// Shrunk is the minimized form of a counterexample.
type Shrunk struct {
	Schema *sql.Schema
	DB     *engine.DB
	Src    plan.Node
	Dst    plan.Node
	Diff   string
	// Execs counts oracle executions spent shrinking (for tests/budgeting).
	Execs int
}

// shrinkMaxExecs bounds how many execute-and-compare probes a single shrink
// may spend. Shrinking is best-effort: when the budget runs out we keep the
// smallest counterexample found so far.
const shrinkMaxExecs = 400

// Shrink minimizes a mismatching (database, source plan, rewritten plan)
// triple while preserving the mismatch, in three wanes:
//
//  1. fewer tables — drop every table neither plan scans (and foreign keys
//     pointing at dropped tables);
//  2. fewer rows — ddmin-style chunked removal per table, halving chunk sizes;
//  3. smaller constants — rewrite literals in both plans to canonical small
//     values (0 for ints, "v0000" for strings, 0.5 for floats).
//
// The returned artifacts are rebuilt copies; the inputs are not modified
// except for literal values shared between the two plans (wane 3), which is
// safe because callers only use the plans for this counterexample.
func Shrink(schema *sql.Schema, db *engine.DB, src, dst plan.Node) *Shrunk {
	s := &shrinker{src: src, dst: dst}
	s.schema, s.data = dropUnusedTables(schema, db, src, dst)

	// Confirm the mismatch reproduces on the rebuilt database; if not (e.g.
	// the mismatch depended on index state we failed to carry over), fall back
	// to the original database unshrunk.
	if !s.stillMismatch() {
		s.schema = schema
		s.data = snapshotData(schema, db)
		if !s.stillMismatch() {
			// Should not happen: the caller observed the mismatch on this very
			// database. Report it unshrunk with whatever diff we can compute.
			out := &Shrunk{Schema: schema, DB: db, Src: src, Dst: dst, Execs: s.execs}
			out.Diff = diffOn(db, src, dst)
			return out
		}
	}

	s.shrinkRows()
	s.shrinkConstants()

	final, _ := buildDB(s.schema, s.data)
	return &Shrunk{
		Schema: s.schema,
		DB:     final,
		Src:    s.src,
		Dst:    s.dst,
		Diff:   diffOn(final, s.src, s.dst),
		Execs:  s.execs,
	}
}

type shrinker struct {
	schema *sql.Schema
	data   map[string][]engine.Row
	src    plan.Node
	dst    plan.Node
	execs  int
}

// stillMismatch rebuilds a database from the current data and reports whether
// the two plans still disagree on it. Any build or source-side execution
// failure counts as "no mismatch" so the attempted reduction is reverted.
func (s *shrinker) stillMismatch() bool {
	if s.execs >= shrinkMaxExecs {
		return false
	}
	s.execs++
	db, err := buildDB(s.schema, s.data)
	if err != nil {
		return false
	}
	want, err := db.Execute(s.src, nil)
	if err != nil {
		return false
	}
	got, err := db.Execute(s.dst, nil)
	if err != nil {
		// The rewritten plan failing to execute is itself the bug.
		return true
	}
	return !BagEqual(want.Rows, got.Rows)
}

// shrinkRows removes rows table by table with halving chunk sizes (ddmin):
// first try deleting large blocks, then ever smaller ones, re-checking the
// mismatch after each candidate deletion.
func (s *shrinker) shrinkRows() {
	for _, name := range s.schema.TableNames() {
		rows := s.data[name]
		for chunk := (len(rows) + 1) / 2; chunk >= 1; chunk /= 2 {
			for lo := 0; lo < len(s.data[name]); {
				rows = s.data[name]
				hi := lo + chunk
				if hi > len(rows) {
					hi = len(rows)
				}
				trial := make([]engine.Row, 0, len(rows)-(hi-lo))
				trial = append(trial, rows[:lo]...)
				trial = append(trial, rows[hi:]...)
				s.data[name] = trial
				if s.stillMismatch() {
					// Deletion kept the bug: stay at lo, rows shifted down.
					continue
				}
				s.data[name] = rows
				lo += chunk
			}
			if s.execs >= shrinkMaxExecs {
				return
			}
		}
	}
}

// shrinkConstants rewrites literal values in both plans toward canonical
// small values, keeping each substitution only if the mismatch survives.
//
// Literals are grouped by value and every occurrence in BOTH plans mutates in
// lockstep: the rewritten plan carries copies of the source's literals (the
// plans were cloned before shrinking), and mutating one copy independently
// would turn the pair into two genuinely different queries whose trivial
// disagreement "preserves" the mismatch while destroying the counterexample.
func (s *shrinker) shrinkConstants() {
	lits := map[*sql.Literal]bool{}
	collectLiterals(s.src, lits)
	collectLiterals(s.dst, lits)
	groups := map[string][]*sql.Literal{}
	for lit := range lits {
		key := lit.Val.String()
		groups[key] = append(groups[key], lit)
	}
	for _, group := range groups {
		if s.execs >= shrinkMaxExecs {
			return
		}
		old := group[0].Val
		simpler, ok := simplerValue(old)
		if !ok {
			continue
		}
		for _, lit := range group {
			lit.Val = simpler
		}
		if !s.stillMismatch() {
			for _, lit := range group {
				lit.Val = old
			}
		}
	}
}

func simplerValue(v sql.Value) (sql.Value, bool) {
	switch {
	case v.IsNull():
		return v, false
	case v.Kind == sql.KindInt && v.I != 0:
		return sql.NewInt(0), true
	case v.Kind == sql.KindFloat && v.F != 0.5:
		return sql.NewFloat(0.5), true
	case v.Kind == sql.KindString && v.S != "v0000":
		return sql.NewString("v0000"), true
	}
	return v, false
}

// collectLiterals gathers every *sql.Literal reachable from the plan's
// predicate, projection, and aggregate expressions.
func collectLiterals(n plan.Node, out map[*sql.Literal]bool) {
	collect := func(e sql.Expr) {
		sql.WalkExprs(e, func(x sql.Expr) bool {
			if lit, ok := x.(*sql.Literal); ok {
				out[lit] = true
			}
			return true
		})
	}
	plan.Walk(n, func(m plan.Node) bool {
		switch t := m.(type) {
		case *plan.Sel:
			collect(t.Pred)
		case *plan.Join:
			collect(t.On)
		case *plan.Proj:
			for _, it := range t.Items {
				collect(it.Expr)
			}
		case *plan.Agg:
			for _, it := range t.Items {
				collect(it.Arg)
			}
		}
		return true
	})
}

// dropUnusedTables restricts the schema to tables either plan scans, strips
// foreign keys pointing at dropped tables, and snapshots the surviving rows.
func dropUnusedTables(schema *sql.Schema, db *engine.DB, src, dst plan.Node) (*sql.Schema, map[string][]engine.Row) {
	used := map[string]bool{}
	for _, t := range plan.BaseTables(src) {
		used[t] = true
	}
	for _, t := range plan.BaseTables(dst) {
		used[t] = true
	}
	out := sql.NewSchema()
	for _, name := range schema.TableNames() {
		if !used[name] {
			continue
		}
		def, _ := schema.Table(name)
		nd := &sql.TableDef{
			Name:       def.Name,
			Columns:    append([]sql.Column{}, def.Columns...),
			PrimaryKey: append([]string{}, def.PrimaryKey...),
		}
		for _, u := range def.Uniques {
			nd.Uniques = append(nd.Uniques, append([]string{}, u...))
		}
		for _, fk := range def.ForeignKeys {
			if used[fk.RefTable] {
				nd.ForeignKeys = append(nd.ForeignKeys, fk)
			}
		}
		out.AddTable(nd)
	}
	return out, snapshotData(out, db)
}

// snapshotData copies the row storage for every table the schema retains.
func snapshotData(schema *sql.Schema, db *engine.DB) map[string][]engine.Row {
	data := map[string][]engine.Row{}
	for _, name := range schema.TableNames() {
		if t, ok := db.Table(name); ok {
			data[name] = append([]engine.Row{}, t.Rows...)
		}
	}
	return data
}

// buildDB materializes a database from schema plus explicit rows. Index
// structures are rebuilt from scratch so lookups match the data.
func buildDB(schema *sql.Schema, data map[string][]engine.Row) (*engine.DB, error) {
	db := engine.NewDB(schema)
	for _, name := range schema.TableNames() {
		for _, r := range data[name] {
			if err := db.Insert(name, append(engine.Row{}, r...)); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// diffOn renders the disagreement between the two plans on the database.
func diffOn(db *engine.DB, src, dst plan.Node) string {
	want, err := db.Execute(src, nil)
	if err != nil {
		return "source plan failed to execute: " + err.Error()
	}
	got, err := db.Execute(dst, nil)
	if err != nil {
		return "rewritten plan failed to execute: " + err.Error()
	}
	return DiffBags(want.Rows, got.Rows)
}
