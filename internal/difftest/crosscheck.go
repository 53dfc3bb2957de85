package difftest

import (
	"fmt"
	"time"

	"math/rand"
	"wetune/internal/constraint"
	"wetune/internal/datagen"
	"wetune/internal/engine"

	"wetune/internal/obs"
	"wetune/internal/obs/journal"
	"wetune/internal/spes"
	"wetune/internal/sql"
	"wetune/internal/template"
)

// CheckResult classifies one cross-check of a discovered rule.
type CheckResult int

// Cross-check outcomes. Skipped means the rule could not be exercised
// (concretization or population failed) — it is not evidence either way and
// must not block emission.
const (
	Agreed CheckResult = iota
	Mismatched
	Skipped
)

func (r CheckResult) String() string {
	switch r {
	case Agreed:
		return "agreed"
	case Mismatched:
		return "mismatched"
	}
	return "skipped"
}

// crosscheckVariants are the data profiles each rule is exercised under: a
// low-NULL baseline plus a NULL-heavy draw to stress 3VL and padding.
var crosscheckVariants = []datagen.Options{
	{Rows: 20, Dist: datagen.Uniform, NullFraction: 0.05, DistinctValues: genDistinctValues},
	{Rows: 20, Dist: datagen.Uniform, NullFraction: 0.5, DistinctValues: genDistinctValues},
}

// CheckRule differentially tests one discovered rule: the rule's templates
// are concretized into a concrete plan pair (via the SPES concretizer, which
// also yields the matching schema), the schema is populated, and both plans
// are executed and compared under bag semantics.
//
// Predicate symbols concretize to `col = 1000+id` marker comparisons, so in
// addition to the datagen rows every table receives one all-marker row per
// predicate symbol — keeping the selections non-vacuous and, because the same
// marker value lands in every table, preserving foreign-key closure — plus a
// NULL-heavy row per table.
//
// The obs counters difftest_checked / difftest_agreed / difftest_mismatched
// and the difftest_check_seconds histogram record outcomes.
func CheckRule(src, dest *template.Node, cs *constraint.Set, seed int64) (CheckResult, string) {
	start := time.Now()
	reg := obs.Default()
	reg.Counter("difftest_checked").Inc()
	defer func() { reg.Histogram("difftest_check_seconds").Observe(time.Since(start)) }()

	res, detail := checkRule(src, dest, cs, seed)
	switch res {
	case Agreed:
		reg.Counter("difftest_agreed").Inc()
	case Mismatched:
		reg.Counter("difftest_mismatched").Inc()
		// A verifier/engine disagreement is exactly the moment the flight
		// recorder exists for: flag it so the journal is dumped with the
		// events leading up to the refuted rule still in the ring.
		journal.Default().Anomaly("difftest mismatch: " + detail)
	}
	return res, detail
}

func checkRule(src, dest *template.Node, cs *constraint.Set, seed int64) (CheckResult, string) {
	cs0, cs1, err := spes.Concretize(src, dest, cs)
	if err != nil {
		return Skipped, fmt.Sprintf("concretize: %v", err)
	}
	markers := predMarkers(src, dest)
	for vi, variant := range crosscheckVariants {
		variant.Seed = seed + int64(vi)
		db := engine.NewDB(cs0.Schema)
		if err := datagen.Populate(db, variant); err != nil {
			return Skipped, fmt.Sprintf("populate: %v", err)
		}
		if err := injectMarkerRows(db, cs0.Schema, markers); err != nil {
			return Skipped, fmt.Sprintf("inject markers: %v", err)
		}
		if len(cs0.Refs) > 0 {
			db, err = enforceRefClosure(cs0.Schema, db, cs0.Refs, variant.Seed)
			if err != nil {
				return Skipped, fmt.Sprintf("ref closure: %v", err)
			}
		}
		want, err := db.Execute(cs0.Plan, nil)
		if err != nil {
			return Skipped, fmt.Sprintf("execute source: %v", err)
		}
		got, err := db.Execute(cs1.Plan, nil)
		if err != nil {
			return Mismatched, fmt.Sprintf("rewritten plan failed to execute: %v", err)
		}
		if !BagEqual(want.Rows, got.Rows) {
			return Mismatched, fmt.Sprintf("variant %d (null=%.2f): %s",
				vi, variant.NullFraction, DiffBags(want.Rows, got.Rows))
		}
	}
	return Agreed, ""
}

// predMarkers collects the marker values (1000+id) the concretizer uses for
// predicate symbols in either template. A fallback marker keeps the injection
// non-empty for predicate-free rules, so join overlap is still guaranteed.
func predMarkers(src, dest *template.Node) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, t := range []*template.Node{src, dest} {
		for _, s := range t.Symbols() {
			if s.Kind == template.KPred {
				m := int64(1000 + s.ID)
				if !seen[m] {
					seen[m] = true
					out = append(out, m)
				}
			}
		}
	}
	if len(out) == 0 {
		out = append(out, 1000)
	}
	return out
}

// injectMarkerRows appends, to every table, one row per marker whose every
// column holds the marker value, and one row that is NULL in every nullable
// column. Identical marker values across tables keep foreign keys closed and
// equi-joins non-empty; marker values start at 1000 so they cannot collide
// with datagen's sequential keys for the small row counts used here.
func injectMarkerRows(db *engine.DB, schema *sql.Schema, markers []int64) error {
	for _, name := range schema.TableNames() {
		def, ok := schema.Table(name)
		if !ok {
			continue
		}
		for _, m := range markers {
			row := make(engine.Row, len(def.Columns))
			for i := range row {
				row[i] = sql.NewInt(m)
			}
			if err := db.Insert(name, row); err != nil {
				return fmt.Errorf("%s marker %d: %w", name, m, err)
			}
		}
		// One NULL-heavy row: nullable columns NULL, the rest get a filler
		// below the marker range. The filler is the SAME value in every table
		// so that NOT NULL foreign-key columns in this row still have a
		// matching parent row — per-table fillers would break referential
		// closure and fabricate counterexamples against FK-dependent rules.
		row := make(engine.Row, len(def.Columns))
		const filler = int64(900)
		for i, col := range def.Columns {
			if col.NotNull || inList(def.PrimaryKey, col.Name) || def.IsUnique([]string{col.Name}) {
				row[i] = sql.NewInt(filler)
			} else {
				row[i] = sql.Null
			}
		}
		if err := db.Insert(name, row); err != nil {
			return fmt.Errorf("%s null row: %w", name, err)
		}
	}
	return nil
}

// enforceRefClosure rewrites child-column values that have no matching parent
// value, so every RefAttrs assumption of the rule holds on the generated data
// — including refs that are not declarable as schema foreign keys (non-unique
// targets), which datagen cannot fill. Rows are patched and the database is
// rebuilt so hash indexes match the data. Chained refs (a→b→c) are handled by
// iterating to a fixed point: each pass only shrinks child values toward
// existing parent sets.
func enforceRefClosure(schema *sql.Schema, db *engine.DB, refs []spes.Ref, seed int64) (*engine.DB, error) {
	data := snapshotData(schema, db)
	rng := rand.New(rand.NewSource(seed))
	for pass := 0; pass <= len(refs); pass++ {
		changed := false
		for _, ref := range refs {
			cdef, ok := schema.Table(ref.ChildTable)
			if !ok {
				continue
			}
			pdef, ok := schema.Table(ref.ParentTable)
			if !ok {
				continue
			}
			ci := cdef.ColumnIndex(ref.ChildColumn)
			pi := pdef.ColumnIndex(ref.ParentColumn)
			if ci < 0 || pi < 0 {
				continue
			}
			var parentVals []sql.Value
			have := map[string]bool{}
			for _, r := range data[ref.ParentTable] {
				if v := r[pi]; !v.IsNull() && !have[v.String()] {
					have[v.String()] = true
					parentVals = append(parentVals, v)
				}
			}
			if len(parentVals) == 0 {
				return nil, fmt.Errorf("parent column %s.%s has no non-NULL values",
					ref.ParentTable, ref.ParentColumn)
			}
			for _, r := range data[ref.ChildTable] {
				if v := r[ci]; !v.IsNull() && !have[v.String()] {
					r[ci] = parentVals[rng.Intn(len(parentVals))]
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return buildDB(schema, data)
}

func inList(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
