// Integrity-invariant tests for the data generator, randomized over the
// difftest schema generator. External package: difftest imports datagen, so an
// internal test package would cycle.
package datagen_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"wetune/internal/datagen"
	"wetune/internal/difftest"
	"wetune/internal/engine"
	"wetune/internal/sql"
)

// checkIntegrity asserts every declared constraint of the schema against the
// generated storage: PK/unique keys are duplicate-free, NOT NULL columns hold
// no NULLs, and every FK value appears in the referenced parent column.
func checkIntegrity(t *testing.T, db *engine.DB) {
	t.Helper()
	for _, name := range db.Schema.TableNames() {
		def, _ := db.Schema.Table(name)
		tbl, _ := db.Table(name)
		colIdx := map[string]int{}
		for i, c := range def.Columns {
			colIdx[c.Name] = i
		}
		keyOf := func(row engine.Row, cols []string) (string, bool) {
			parts := make([]string, len(cols))
			for i, c := range cols {
				v := row[colIdx[c]]
				if v.IsNull() {
					// SQL unique constraints ignore NULL-containing keys.
					return "", false
				}
				parts[i] = v.String()
			}
			return strings.Join(parts, "\x00"), true
		}
		keys := append([][]string{}, def.Uniques...)
		if len(def.PrimaryKey) > 0 {
			keys = append(keys, def.PrimaryKey)
		}
		for _, key := range keys {
			seen := map[string]bool{}
			for ri, row := range tbl.Rows {
				k, ok := keyOf(row, key)
				if !ok {
					if containsAny(def.PrimaryKey, key) && sameKey(key, def.PrimaryKey) {
						t.Errorf("%s row %d: NULL in primary key %v", name, ri, key)
					}
					continue
				}
				if seen[k] {
					t.Errorf("%s row %d: duplicate value %q for key %v", name, ri, k, key)
				}
				seen[k] = true
			}
		}
		for ci, c := range def.Columns {
			if !c.NotNull {
				continue
			}
			for ri, row := range tbl.Rows {
				if row[ci].IsNull() {
					t.Errorf("%s row %d: NULL in NOT NULL column %s", name, ri, c.Name)
				}
			}
		}
		for _, fk := range def.ForeignKeys {
			parent, ok := db.Table(fk.RefTable)
			if !ok {
				t.Errorf("%s: FK references unknown table %s", name, fk.RefTable)
				continue
			}
			pdef := parent.Def
			pIdx := map[string]int{}
			for i, c := range pdef.Columns {
				pIdx[c.Name] = i
			}
			parentKeys := map[string]bool{}
			for _, prow := range parent.Rows {
				parts := make([]string, len(fk.RefColumns))
				for i, c := range fk.RefColumns {
					parts[i] = prow[pIdx[c]].String()
				}
				parentKeys[strings.Join(parts, "\x00")] = true
			}
			for ri, row := range tbl.Rows {
				parts := make([]string, len(fk.Columns))
				null := false
				for i, c := range fk.Columns {
					v := row[colIdx[c]]
					if v.IsNull() {
						null = true
						break
					}
					parts[i] = v.String()
				}
				if null {
					continue // NULL FK values reference nothing, legally
				}
				if !parentKeys[strings.Join(parts, "\x00")] {
					t.Errorf("%s row %d: dangling FK %v = %v into %s(%v)",
						name, ri, fk.Columns, parts, fk.RefTable, fk.RefColumns)
				}
			}
		}
	}
}

func sameKey(a, b []string) bool {
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

func containsAny(haystack, needles []string) bool {
	set := map[string]bool{}
	for _, h := range haystack {
		set[h] = true
	}
	for _, n := range needles {
		if set[n] {
			return true
		}
	}
	return false
}

// TestIntegrityRandomSchemas runs the full invariant suite over many random
// schemas under all the distribution shapes the fuzzer uses.
func TestIntegrityRandomSchemas(t *testing.T) {
	variants := []datagen.Options{
		{Rows: 60, Dist: datagen.Uniform},
		{Rows: 60, Dist: datagen.Zipfian, Theta: 1.5},
		{Rows: 60, Dist: datagen.Uniform, NullFraction: 0.5},
		{Rows: 60, Dist: datagen.Zipfian, Theta: 1.25, NullFraction: 0.5},
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema := difftest.GenSchema(rng)
		for vi, opts := range variants {
			opts.Seed = seed
			db := engine.NewDB(schema)
			if err := datagen.Populate(db, opts); err != nil {
				t.Fatalf("seed %d variant %d: populate: %v", seed, vi, err)
			}
			checkIntegrity(t, db)
			if t.Failed() {
				t.Fatalf("seed %d variant %d: integrity violated", seed, vi)
			}
		}
	}
}

// dbFingerprint hashes the full contents of every table in schema order; equal
// fingerprints mean byte-identical generated databases.
func dbFingerprint(db *engine.DB) string {
	h := fnv.New64a()
	for _, name := range db.Schema.TableNames() {
		tbl, _ := db.Table(name)
		fmt.Fprintf(h, "table %s\n", name)
		for _, row := range tbl.Rows {
			fmt.Fprintln(h, row.Key(nil))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSameSeedDeterminismGolden pins the exact generated contents for a fixed
// schema and seed. If this golden moves, every stored fuzz repro in the wild
// silently changes meaning — bump repro versions rather than updating it
// casually.
func TestSameSeedDeterminismGolden(t *testing.T) {
	gen := func() *engine.DB {
		rng := rand.New(rand.NewSource(11))
		schema := difftest.GenSchema(rng)
		db := engine.NewDB(schema)
		if err := datagen.Populate(db, datagen.Options{
			Rows: 25, Dist: datagen.Zipfian, Theta: 1.5, Seed: 11, NullFraction: 0.3,
		}); err != nil {
			t.Fatal(err)
		}
		return db
	}
	fp1, fp2 := dbFingerprint(gen()), dbFingerprint(gen())
	if fp1 != fp2 {
		t.Fatalf("same-seed populate is not deterministic: %s vs %s", fp1, fp2)
	}
	const golden = "771dce128d0a7710"
	if fp1 != golden {
		t.Fatalf("generated contents drifted from golden: got %s, want %s", fp1, golden)
	}
}

// TestDistinctValuesBound checks that non-key, non-FK columns draw from the
// configured bounded domain — the property that makes generated predicates
// actually select rows instead of comparing against values that never occur.
func TestDistinctValuesBound(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema := difftest.GenSchema(rng)
		db := engine.NewDB(schema)
		const domain = 5
		if err := datagen.Populate(db, datagen.Options{
			Rows: 200, Seed: seed, DistinctValues: domain,
		}); err != nil {
			t.Fatal(err)
		}
		for _, name := range db.Schema.TableNames() {
			def, _ := db.Schema.Table(name)
			tbl, _ := db.Table(name)
			for ci, c := range def.Columns {
				if c.Type != sql.TInt || isKeyOrFK(def, c.Name) {
					continue
				}
				for _, row := range tbl.Rows {
					v := row[ci]
					if v.IsNull() {
						continue
					}
					if v.I < 0 || v.I >= domain {
						t.Fatalf("%s.%s value %d outside domain [0,%d)", name, c.Name, v.I, domain)
					}
				}
			}
		}
	}
}

func isKeyOrFK(def *sql.TableDef, col string) bool {
	for _, c := range def.PrimaryKey {
		if c == col {
			return true
		}
	}
	for _, u := range def.Uniques {
		for _, c := range u {
			if c == col {
				return true
			}
		}
	}
	for _, fk := range def.ForeignKeys {
		for _, c := range fk.Columns {
			if c == col {
				return true
			}
		}
	}
	return false
}
