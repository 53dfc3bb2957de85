package bench

import (
	"context"
	"time"

	"wetune/internal/constraint"
	"wetune/internal/datagen"
	"wetune/internal/difftest"
	"wetune/internal/engine"
	"wetune/internal/pipeline"
	"wetune/internal/plan"
	"wetune/internal/rules"
	"wetune/internal/spes"
	"wetune/internal/template"
	"wetune/internal/verify"
	"wetune/internal/workload"
)

// RuleDiscovery reproduces §8.2's generation run at a laptop-scale template
// size (the paper enumerates size <= 4 on 120 cores for 36 hours; maxSize 2
// reproduces the pipeline end to end in seconds and the size-4 template
// count is still reported).
func RuleDiscovery(maxSize int) *Report {
	r := NewReport("Rule generation (8.2)")
	for n := 1; n <= 4; n++ {
		count := len(template.Enumerate(template.EnumOptions{MaxSize: n}))
		r.Printf("templates up to size %d: %d", n, count)
		if n == 4 {
			r.Metric("templates_size4", float64(count))
		}
	}
	r.Printf("paper: 3113 distinct templates at size <= 4 (with the authors' filters)")

	start := time.Now()
	res := discoverAlgebraic(maxSize)
	elapsed := time.Since(start)
	r.Printf("discovery at size <= %d: %d rules from %d pairs (%d skipped), %d prover calls, %.2fs",
		maxSize, len(res.Rules), res.Stats.PairsTried, res.Stats.PairsSkipped,
		res.Stats.ProverCalls, elapsed.Seconds())
	if res.Stats.PairsTried > 0 {
		r.Printf("prover calls per tried pair: %.1f (paper: 383 per rule on average)",
			float64(res.Stats.ProverCalls)/float64(res.Stats.PairsTried))
	}
	r.Metric("rules_found", float64(len(res.Rules)))
	r.Metric("prover_calls", float64(res.Stats.ProverCalls))
	return r
}

// discoverAlgebraic runs the discovery pipeline over every template of at most
// maxSize operators with the algebraic prover, bounded to 45 s of wall clock.
func discoverAlgebraic(maxSize int) *pipeline.Result {
	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
	defer cancel()
	return pipeline.Run(ctx, pipeline.Options{
		Templates:  template.Enumerate(template.EnumOptions{MaxSize: maxSize}),
		PairProver: pipeline.AlgebraicPairProver,
	})
}

// Table7Verification reproduces Table 7's Verifier column: which of the
// library's Table 7 rules each verifier proves (paper: built-in proves the 31
// W/B rules, SPES the 19 S/B rules, of 35).
func Table7Verification() *Report {
	r := NewReport("Table 7: rule verification")
	var builtinOK, spesOK, bothOK int
	table := rules.Table7()
	for _, rule := range table {
		rep := verify.Verify(rule.Src, rule.Dest, rule.Constraints)
		b := rep.Outcome == verify.Verified
		s, _ := spes.VerifyRule(rule.Src, rule.Dest, rule.Constraints)
		if b {
			builtinOK++
		}
		if s {
			spesOK++
		}
		if b && s {
			bothOK++
		}
		tag := "-"
		switch {
		case b && s:
			tag = "B"
		case b:
			tag = "W"
		case s:
			tag = "S"
		}
		r.Printf("rule %2d %-28s paper=%s measured=%s", rule.No, rule.Name, rule.Verifier, tag)
	}
	r.Printf("rule 25 is not in the library: neither verifier proves it (DESIGN.md deviation 11)")
	r.Printf("built-in proves %d/%d, SPES %d/%d, both %d (paper: 31, 19, 15 of 35)",
		builtinOK, len(table), spesOK, len(table), bothOK)
	r.Metric("builtin", float64(builtinOK))
	r.Metric("spes", float64(spesOK))
	r.Metric("both", float64(bothOK))
	return r
}

// VerifierComparison reproduces §8.5: the two verifiers over the Calcite
// suite's 232 equivalent pairs (paper: SPES verifies 95, built-in 73, both
// 55), plus SPES over built-in-discovered rules (paper: 41 of 861, with 725
// failing for integrity constraints and 95 for mismatched input tables).
func VerifierComparison(discoverySize int) *Report {
	r := NewReport("Verifier comparison (8.5)")
	schema := workload.CalciteSchema()
	var builtinOK, spesOK, both int
	perFamily := map[string][2]int{}
	for _, pair := range workload.CalcitePairs() {
		p1, err1 := plan.BuildSQL(pair.Q1, schema)
		p2, err2 := plan.BuildSQL(pair.Q2, schema)
		if err1 != nil || err2 != nil {
			continue
		}
		b := verify.VerifyPlanPair(p1, p2, schema).Outcome == verify.Verified
		s, _ := spes.VerifyPlans(rewrite0(p1), rewrite0(p2))
		counts := perFamily[pair.Family]
		if b {
			builtinOK++
			counts[0]++
		}
		if s {
			spesOK++
			counts[1]++
		}
		if b && s {
			both++
		}
		perFamily[pair.Family] = counts
	}
	r.Printf("Calcite suite: built-in verifies %d/232, SPES %d/232, both %d", builtinOK, spesOK, both)
	r.Printf("paper:         built-in 73/232, SPES 95/232, both 55")
	r.Metric("builtin_pairs", float64(builtinOK))
	r.Metric("spes_pairs", float64(spesOK))
	r.Metric("both_pairs", float64(both))

	// SPES over rules the built-in verifier discovered.
	res := discoverAlgebraic(discoverySize)
	spesProved, icFail, tableFail, otherFail := 0, 0, 0, 0
	for _, rule := range res.Rules {
		ok, reason := spes.VerifyRule(rule.Src, rule.Dest, rule.Constraints)
		switch {
		case ok:
			spesProved++
		case contains(reason, "different input tables"):
			tableFail++
		case spes.UsesIntegrityConstraints(rule.Constraints):
			icFail++
		default:
			otherFail++
		}
	}
	r.Printf("built-in-discovered rules (size <= %d): %d total; SPES proves %d; fails: %d integrity-constraint, %d input-table, %d other",
		discoverySize, len(res.Rules), spesProved, icFail, tableFail, otherFail)
	r.Printf("paper: 861 rules; SPES proves 41; 725 IC failures, 95 input-table failures")
	r.Metric("rules_total", float64(len(res.Rules)))
	r.Metric("spes_proved_rules", float64(spesProved))
	return r
}

func rewrite0(p plan.Node) plan.Node { return p } // SPES takes plans as-is

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// TimeoutStudy reproduces §5.1.2's robustness experiment: the 232 correct
// pairs (paper: 73 proved), and 100 mutated incorrect ones (paper: 96 hit
// the timeout, 4 are disproved; crucially none verifies). A mutant the
// verifier does not prove counts as disproved when its two queries return
// different bags on a populated Calcite database, under the two data
// profiles the benchmark oracle uses (uniform; Zipf 1.25 with half the
// nullable values NULL).
func TimeoutStudy() *Report {
	r := NewReport("Timeout study (5.1.2)")
	schema := workload.CalciteSchema()
	pairs := workload.CalcitePairs()
	proved := 0
	for _, pair := range pairs {
		p1, err1 := plan.BuildSQL(pair.Q1, schema)
		p2, err2 := plan.BuildSQL(pair.Q2, schema)
		if err1 != nil || err2 != nil {
			continue
		}
		if verify.VerifyPlanPair(p1, p2, schema).Outcome == verify.Verified {
			proved++
		}
	}
	r.Printf("correct pairs proved: %d/232 (paper: 73/232)", proved)
	r.Metric("correct_proved", float64(proved))

	var dbs []*engine.DB
	for _, opts := range []datagen.Options{
		{Rows: 200, Dist: datagen.Uniform, Seed: 1},
		{Rows: 200, Dist: datagen.Zipfian, Theta: 1.25, NullFraction: 0.5, Seed: 2},
	} {
		db := engine.NewDB(schema)
		if err := datagen.Populate(db, opts); err != nil {
			r.Printf("populate: %v", err)
			return r
		}
		dbs = append(dbs, db)
	}
	differ := func(p1, p2 plan.Node) bool {
		for _, db := range dbs {
			want, err1 := db.Execute(p1, nil)
			got, err2 := db.Execute(p2, nil)
			if err1 == nil && err2 == nil && !difftest.BagEqual(want.Rows, got.Rows) {
				return true
			}
		}
		return false
	}

	wronglyVerified, disproved, rejected := 0, 0, 0
	for i := 0; i < 100; i++ {
		m := workload.MutatePair(pairs[i%len(pairs)], i)
		p1, err1 := plan.BuildSQL(m.Q1, schema)
		p2, err2 := plan.BuildSQL(m.Q2, schema)
		switch {
		case err1 != nil || err2 != nil:
			rejected++
		case verify.VerifyPlanPair(p1, p2, schema).Outcome == verify.Verified:
			wronglyVerified++
		case differ(p1, p2):
			disproved++
		default:
			rejected++
		}
	}
	r.Printf("mutated incorrect pairs: %d wrongly verified, %d disproved by execution, %d rejected/timeout",
		wronglyVerified, disproved, rejected)
	r.Printf("paper: 0 wrongly verified, 4 disproved, 96 timeout")
	r.Metric("wrongly_verified", float64(wronglyVerified))
	return r
}

// Table6Capabilities probes the Table 6 feature matrix against both
// verifiers with one representative rule per feature.
func Table6Capabilities() *Report {
	r := NewReport("Table 6: verifier capabilities")
	probes := capabilityProbes()
	for _, p := range probes {
		bRep := verify.Verify(p.src, p.dest, p.cs)
		b := bRep.Outcome == verify.Verified
		s, _ := spes.VerifyRule(p.src, p.dest, p.cs)
		r.Printf("%-28s builtin=%-5v spes=%-5v (paper: builtin=%s spes=%s)",
			p.name, b, s, p.paperBuiltin, p.paperSPES)
	}
	return r
}

type probe struct {
	name                    string
	src, dest               *template.Node
	cs                      *constraint.Set
	paperBuiltin, paperSPES string
}

func capabilityProbes() []probe {
	rsym := func(id int) template.Sym { return template.Sym{Kind: template.KRel, ID: id} }
	asym := func(id int) template.Sym { return template.Sym{Kind: template.KAttrs, ID: id} }
	psym := func(id int) template.Sym { return template.Sym{Kind: template.KPred, ID: id} }
	fsym := func(id int) template.Sym { return template.Sym{Kind: template.KFunc, ID: id} }
	c := func(cs ...constraint.C) *constraint.Set { return constraint.NewSet(cs...) }

	aggRule, _ := rules.ByNo(33)
	r6, _ := rules.ByNo(6) // NULL + OUTER JOIN + integrity constraints
	r7, _ := rules.ByNo(7) // different number of input tables
	_ = fsym
	return []probe{
		{
			name: "Aggregation",
			src:  aggRule.Src, dest: aggRule.Dest, cs: aggRule.Constraints,
			paperBuiltin: "no", paperSPES: "yes",
		},
		{
			name:         "UNION",
			src:          template.UnionNode(template.Input(rsym(0)), template.Input(rsym(1))),
			dest:         template.UnionNode(template.Input(rsym(1)), template.Input(rsym(0))),
			cs:           c(),
			paperBuiltin: "no", paperSPES: "yes",
		},
		{
			name: "NULL + OUTER JOIN",
			src:  r6.Src, dest: r6.Dest, cs: r6.Constraints,
			paperBuiltin: "yes", paperSPES: "no",
		},
		{
			name: "Integrity constraints",
			src:  template.Dedup(template.Proj(asym(0), template.Input(rsym(0)))),
			dest: template.Proj(asym(0), template.Input(rsym(0))),
			cs: c(constraint.New(constraint.Unique, rsym(0), asym(0)),
				constraint.New(constraint.SubAttrs, asym(0), template.AttrsOf(rsym(0)))),
			paperBuiltin: "yes", paperSPES: "no",
		},
		{
			name: "Different input tables",
			src:  r7.Src, dest: r7.Dest, cs: r7.Constraints,
			paperBuiltin: "yes", paperSPES: "no",
		},
		{
			name:         "Predicate symbols",
			src:          template.Sel(psym(0), asym(0), template.Sel(psym(0), asym(0), template.Input(rsym(0)))),
			dest:         template.Sel(psym(0), asym(0), template.Input(rsym(0))),
			cs:           c(constraint.New(constraint.SubAttrs, asym(0), template.AttrsOf(rsym(0)))),
			paperBuiltin: "yes", paperSPES: "yes",
		},
	}
}
