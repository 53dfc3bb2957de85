package workload

import (
	"sort"

	"wetune/internal/sql"
)

// Item is one entry of the fixed rewrite corpus: the application (schema key)
// and the query text.
type Item struct {
	App string
	SQL string
}

// RewriteCorpus returns the fixed evaluation corpus in deterministic order —
// perApp queries for each application archetype plus both sides of every
// Calcite-suite pair — together with the schema for each App key. This is
// the workload `wetune report rules`, `wetune loadtest`, the output golden
// (rewrite.TestCorpusOutputGolden) and the explain-consistency tests all
// iterate, so their numbers are directly comparable.
func RewriteCorpus(perApp int) (schemas map[string]*sql.Schema, items []Item) {
	schemas = map[string]*sql.Schema{}
	for _, a := range Apps() {
		schemas[a.Name] = a.Schema
	}
	corpus := Corpus(perApp)
	apps := make([]string, 0, len(corpus))
	for name := range corpus {
		apps = append(apps, name)
	}
	sort.Strings(apps)
	for _, name := range apps {
		for _, q := range corpus[name] {
			items = append(items, Item{App: name, SQL: q.SQL})
		}
	}
	schemas["__calcite"] = CalciteSchema()
	for _, pair := range CalcitePairs() {
		items = append(items, Item{App: "__calcite", SQL: pair.Q1})
		items = append(items, Item{App: "__calcite", SQL: pair.Q2})
	}
	return schemas, items
}
