package main

import (
	"fmt"
	"strings"

	"wetune"
	"wetune/internal/difftest"
)

// oracleRows is the table size the oracle populates (per table, per profile).
const oracleRows = 200

// oracle decides whether a rewrite preserved its query's results without
// asking the rewriter: both texts are parsed and planned from scratch and
// executed on internal/engine over seeded data, and the result bags compared.
// Two data profiles per schema — uniform with few NULLs, and Zipfian with
// half the nullable values NULL — exercise duplicates and three-valued logic.
type oracle struct {
	planners map[string]*wetune.Optimizer // PlanSQL only
	dbs      map[string][2]*wetune.DB
}

func newOracle(seed int64, schemas map[string]*wetune.Schema, planners map[string]*wetune.Optimizer) (*oracle, error) {
	o := &oracle{planners: planners, dbs: make(map[string][2]*wetune.DB, len(schemas))}
	dataSeed := seedFor(seed, streamData)
	profiles := [2]wetune.PopulateOptions{
		{Rows: oracleRows, Dist: wetune.Uniform, Seed: dataSeed},
		{Rows: oracleRows, Dist: wetune.Zipfian, Theta: 1.25, NullFraction: 0.5, Seed: dataSeed + 1},
	}
	for app, schema := range schemas {
		var pair [2]*wetune.DB
		for i, p := range profiles {
			pair[i] = wetune.NewDatabase(schema)
			if err := wetune.Populate(pair[i], p); err != nil {
				return nil, fmt.Errorf("oracle: populate %s: %w", app, err)
			}
		}
		o.dbs[app] = pair
	}
	return o, nil
}

// check returns nil when in and out produce equal result bags on both data
// profiles. A query that orders and limits may legitimately pick different
// rows among ties, so for those only the row count is compared.
func (o *oracle) check(app, in, out string) error {
	planner := o.planners[app]
	pin, err := planner.PlanSQL(in)
	if err != nil {
		return fmt.Errorf("plan input: %w", err)
	}
	pout, err := planner.PlanSQL(out)
	if err != nil {
		return fmt.Errorf("plan output: %w", err)
	}
	upper := strings.ToUpper(in)
	countOnly := strings.Contains(upper, "ORDER BY") && strings.Contains(upper, "LIMIT")
	for i, db := range o.dbs[app] {
		rin, err := wetune.Execute(db, pin)
		if err != nil {
			return fmt.Errorf("execute input (profile %d): %w", i, err)
		}
		rout, err := wetune.Execute(db, pout)
		if err != nil {
			return fmt.Errorf("execute output (profile %d): %w", i, err)
		}
		if countOnly {
			if len(rin) != len(rout) {
				return fmt.Errorf("profile %d: %d rows became %d", i, len(rin), len(rout))
			}
			continue
		}
		if !difftest.BagEqual(rin, rout) {
			return fmt.Errorf("profile %d: result bags differ: %s", i, difftest.DiffBags(rin, rout))
		}
	}
	return nil
}
