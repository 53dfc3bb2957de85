package workload

import (
	"testing"

	"wetune/internal/plan"
	"wetune/internal/rewrite"
	"wetune/internal/rules"
)

func TestAppsHaveValidSchemas(t *testing.T) {
	apps := Apps()
	if len(apps) != 20 {
		t.Fatalf("apps = %d, want 20", len(apps))
	}
	seen := map[string]bool{}
	for _, a := range apps {
		if seen[a.Name] {
			t.Errorf("duplicate app name %s", a.Name)
		}
		seen[a.Name] = true
		if err := a.Schema.Validate(); err != nil {
			t.Errorf("app %s: %v", a.Name, err)
		}
	}
}

func TestGeneratedQueriesAllPlan(t *testing.T) {
	for _, app := range Apps()[:8] {
		for _, q := range GenerateQueries(app, 120) {
			if _, err := plan.BuildSQL(q.SQL, app.Schema); err != nil {
				t.Errorf("app %s pattern %s: %v\n  %s", app.Name, q.Tag, err, q.SQL)
			}
		}
	}
}

func TestGeneratedQueriesDeterministic(t *testing.T) {
	app := Apps()[0]
	a := GenerateQueries(app, 50)
	b := GenerateQueries(app, 50)
	for i := range a {
		if a[i].SQL != b[i].SQL {
			t.Fatalf("query %d differs across runs", i)
		}
	}
}

func TestCorpusShape(t *testing.T) {
	corpus := Corpus(40)
	if len(corpus) != 20 {
		t.Fatalf("corpus apps = %d", len(corpus))
	}
	total := 0
	tags := map[string]int{}
	for _, qs := range corpus {
		total += len(qs)
		for _, q := range qs {
			tags[q.Tag]++
		}
	}
	if total != 800 {
		t.Fatalf("total queries = %d", total)
	}
	// Roughly half must be trivial selects (the paper's 4251/8518).
	trivial := tags["simple"] + tags["simple2"]
	if frac := float64(trivial) / float64(total); frac < 0.45 || frac > 0.75 {
		t.Errorf("trivial fraction = %.2f, want ~0.6", frac)
	}
}

func TestIssuesCorpus(t *testing.T) {
	issues := Issues()
	if len(issues) != 50 {
		t.Fatalf("issues = %d, want 50", len(issues))
	}
	for _, is := range issues {
		if _, err := plan.BuildSQL(is.SQL, is.Schema); err != nil {
			t.Errorf("issue %d (%s): original does not plan: %v", is.ID, is.Source, err)
		}
		if _, err := plan.BuildSQL(is.Desired, is.Schema); err != nil {
			t.Errorf("issue %d (%s): desired does not plan: %v", is.ID, is.Source, err)
		}
	}
}

func TestIssueStudyCounts(t *testing.T) {
	// The headline §2.2 numbers: WeTune fixes 38/50; the SQL-Server-like
	// baseline 23; the Calcite-like baseline 4.
	issues := Issues()
	count := func(rs []rules.Rule) int {
		fixed := 0
		for _, is := range issues {
			orig, err := plan.BuildSQL(is.SQL, is.Schema)
			if err != nil {
				t.Fatal(err)
			}
			desired, err := plan.BuildSQL(is.Desired, is.Schema)
			if err != nil {
				t.Fatal(err)
			}
			rw := rewrite.NewRewriter(rs, is.Schema)
			out, applied, _ := rw.Search(orig, rewrite.Options{})
			if len(applied) > 0 && plan.Size(out) <= plan.Size(desired) {
				fixed++
			}
		}
		return fixed
	}
	wetune := count(WeTuneRules())
	mssql := count(MSSQLRules())
	calcite := count(CalciteRules())
	t.Logf("fixed: wetune=%d mssql=%d calcite=%d (paper: 38/23/4)", wetune, mssql, calcite)
	if wetune < mssql || mssql < calcite {
		t.Errorf("ordering violated: wetune=%d mssql=%d calcite=%d", wetune, mssql, calcite)
	}
	if wetune < 30 {
		t.Errorf("WeTune fixes only %d issues; expected at least 30 of 50", wetune)
	}
	if calcite > 10 {
		t.Errorf("Calcite baseline fixes %d; expected few", calcite)
	}
}

func TestCalcitePairsPlan(t *testing.T) {
	schema := CalciteSchema()
	pairs := CalcitePairs()
	if len(pairs) != 232 {
		t.Fatalf("pairs = %d, want 232", len(pairs))
	}
	for _, p := range pairs {
		if _, err := plan.BuildSQL(p.Q1, schema); err != nil {
			t.Errorf("pair %d (%s) Q1: %v", p.ID, p.Family, err)
		}
		if _, err := plan.BuildSQL(p.Q2, schema); err != nil {
			t.Errorf("pair %d (%s) Q2: %v", p.ID, p.Family, err)
		}
	}
}

func TestMutatePairStillPlans(t *testing.T) {
	schema := CalciteSchema()
	p := CalcitePairs()[0]
	m := MutatePair(p, 3)
	if _, err := plan.BuildSQL(m.Q2, schema); err != nil {
		t.Fatalf("mutated pair does not plan: %v", err)
	}
	if m.Q2 == p.Q2 {
		t.Fatal("mutation did not change the query")
	}
}

func TestBaselineRuleSets(t *testing.T) {
	w, m, c := WeTuneRules(), MSSQLRules(), CalciteRules()
	if len(w) <= len(m) || len(m) <= len(c) {
		t.Fatalf("rule set sizes: wetune=%d mssql=%d calcite=%d", len(w), len(m), len(c))
	}
	for _, r := range c {
		if !r.Calcite {
			t.Errorf("non-Calcite rule %d in Calcite baseline", r.No)
		}
	}
	for _, r := range m {
		if r.MS == "N" {
			t.Errorf("unsupported rule %d in MSSQL baseline", r.No)
		}
	}
}
