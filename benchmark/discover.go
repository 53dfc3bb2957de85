package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"wetune"
	"wetune/internal/constraint"
	"wetune/internal/difftest"
	"wetune/internal/fol"
	"wetune/internal/obs"
	"wetune/internal/pipeline"
	"wetune/internal/spes"
	"wetune/internal/template"
	"wetune/internal/uexpr"
	"wetune/internal/verify"
)

// smokeTemplates is how many of the size-2 templates -smoke pairs up.
const smokeTemplates = 8

// discoverEnv is the input of a discovery repetition. The size-2 template
// space is enumerated exhaustively, so no seed enters it.
type discoverEnv struct {
	templates []*template.Node
}

// setupDiscover enumerates the templates and walks every pair the pipeline
// will generate once — rename apart, enumerate C*, build the pair's
// verification context — without proving anything. That is the
// constraint-independent preparation of a discovery run: it warms the layers
// a repetition enters first, and work a later change moves out of the timed
// search into preparation of this kind shows up in setup_s.
func setupDiscover(smoke bool) *discoverEnv {
	ts := template.Enumerate(template.EnumOptions{MaxSize: 2})
	if smoke {
		ts = ts[:smokeTemplates]
	}
	for _, src := range ts {
		for _, dest := range ts {
			if dest.NotMoreOpsThan(src) {
				renamed := pipeline.RenameApart(src, dest)
				_ = constraint.Enumerate(src, renamed)
				_ = verify.NewPairContext(src, renamed)
			}
		}
	}
	return &discoverEnv{templates: ts}
}

// repetition is one complete discovery run measured from outside: wall time,
// every prover call's latency, and the rules it emitted.
type repetition struct {
	use    usage
	stolen float64  // share of CPU capacity the hypervisor withheld meanwhile
	calls  []uint32 // prover call latencies, ns
	rules  []pipeline.Rule
	stats  pipeline.Stats
}

// rulesSHA256 hashes the emitted rules in the pipeline's (sorted) order.
func rulesSHA256(rules []pipeline.Rule) string {
	h := sha256.New()
	for _, r := range rules {
		fmt.Fprintln(h, r.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runDiscovery performs one repetition with pipeline.Run: the default pair
// prover (algebraic path with SMT fallback) behind a closure that times each
// call, one worker per CPU, a fresh proof cache.
func (env *discoverEnv) runDiscovery(ctx context.Context) repetition {
	var mu sync.Mutex
	var perPair []*[]uint32
	factory := func(src, dest *template.Node) pipeline.Prover {
		inner := pipeline.DefaultPairProver(src, dest)
		calls := new([]uint32)
		mu.Lock()
		perPair = append(perPair, calls)
		mu.Unlock()
		// The prover of one pair is only ever called from the worker that
		// owns the pair, so the slice needs no lock of its own.
		return func(ctx context.Context, s, d *template.Node, cs *constraint.Set) bool {
			t0 := time.Now()
			v := inner(ctx, s, d, cs)
			*calls = append(*calls, uint32(min(time.Since(t0), 4*time.Second)))
			return v
		}
	}
	steal, mark := readSteal(), markUsage()
	res := pipeline.Run(ctx, pipeline.Options{
		Templates:  env.templates,
		PairProver: factory,
		Workers:    runtime.GOMAXPROCS(0),
		Cache:      pipeline.NewProofCache(),
	})
	use := mark.since()
	rep := repetition{use: use, stolen: stolenShare(readSteal()-steal, use.Wall), rules: res.Rules, stats: res.Stats}
	for _, calls := range perPair {
		rep.calls = append(rep.calls, *calls...)
	}
	return rep
}

// checkRules runs the engine oracle on every emitted rule. A refuted rule is
// a failed operation, except the refutations committed as known in the golden
// file: on the seed tree the oracle and the SMT-backed verifier disagree on a
// few rules, which is a finding for a correctness issue to settle, not a
// property of any run. Those are counted and reported, and everything new
// fails.
func checkRules(rules []pipeline.Rule, seed int64, known []string, fails *failureLog) (agreed, skipped, knownRefuted int) {
	for _, r := range rules {
		switch res, detail := difftest.CheckRule(r.Src, r.Dest, r.Constraints, seedFor(seed, streamData)); {
		case res == difftest.Agreed:
			agreed++
		case res == difftest.Skipped:
			skipped++
		case slices.Contains(known, r.String()):
			knownRefuted++
		default:
			fails.add("oracle refutes rule %s: %s", r.String(), detail)
		}
	}
	return agreed, skipped, knownRefuted
}

// discoverCounts are the counts the traced repetition takes at the prover and
// pair boundaries, shared by its workers.
type discoverCounts struct {
	mu                              sync.Mutex
	calls, algebraic, smt, rejected int64
	smtCalls, decisions             int64
	cstar, generated                int64
	rules                           []pipeline.Rule
	stats                           pipeline.Stats
	busy                            time.Duration
}

// tracedProver is the prover of one pair in the traced repetition: the same
// verdicts as pipeline.DefaultPairProver, but with the algebraic path and the
// SMT fallback timed as separate child spans of each call.
type tracedProver struct {
	t      *tracer
	parent int64
	pc     *verify.PairContext
	d      *discoverCounts
}

func (p *tracedProver) prove(ctx context.Context, _, _ *template.Node, cs *constraint.Set) bool {
	opts := verify.DefaultOptions()
	opts.Context = ctx
	opts.SMT.MaxNodes = 20000 // pipeline.DefaultPairProver's budget
	opts.SkipSMT = true
	t0 := time.Now()
	rep := p.pc.VerifyOpts(cs, opts)
	t1 := time.Now()
	end, fellBack := t1, rep.Outcome == verify.Rejected
	if fellBack {
		opts.SkipSMT, opts.SkipAlgebraic = false, true
		rep = p.pc.VerifyOpts(cs, opts)
		end = time.Now()
	}
	call := p.t.add("verify.call", p.parent, t0, end)
	p.t.add("verify.algebraic", call, t0, t1)
	if fellBack {
		p.t.add("smt.solve", call, t1, end)
	}
	p.d.mu.Lock()
	defer p.d.mu.Unlock()
	p.d.calls++
	if fellBack {
		p.d.smtCalls++
		p.d.decisions += int64(rep.Stats.Decisions)
	}
	switch {
	case rep.Outcome != verify.Verified:
		p.d.rejected++
	case rep.Method == verify.MethodSMT:
		p.d.smt++
	default:
		p.d.algebraic++
	}
	return rep.Outcome == verify.Verified
}

// tracedRepetition is the traced discovery pass: it walks the same pairs as
// pipeline.Run in the same order on its own pool of one worker per CPU, with
// one tracer per worker.
func (env *discoverEnv) tracedRepetition(ctx context.Context) (*tracer, *discoverCounts, time.Duration) {
	type pair struct{ src, dest *template.Node }
	workers := runtime.GOMAXPROCS(0)
	base := time.Now()
	tracers := make([]*tracer, workers)
	d := &discoverCounts{}
	cache := pipeline.NewProofCache()
	pairs := make(chan pair, workers) // sized like pipeline.Run's queue
	go func() {
		defer close(pairs)
		for _, src := range env.templates {
			for _, dest := range env.templates {
				if !dest.NotMoreOpsThan(src) {
					continue
				}
				d.generated++ // read only after the workers saw the close
				select {
				case pairs <- pair{src, pipeline.RenameApart(src, dest)}:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		tracers[w] = newTracer(base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range pairs {
				tracePair(ctx, tracers[w], d, p.src, p.dest, cache)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(base)
	tracers[0].merge(tracers[1:]...)
	return tracers[0], d, wall
}

// tracePair runs one pair: pipeline.RunPair is the root span, the
// pair-context build and every prover call its children; the constraint and
// FOL layers are probed on the same pair as spans of their own.
func tracePair(ctx context.Context, t *tracer, d *discoverCounts, src, dest *template.Node, cache *pipeline.ProofCache) {
	t.begin()
	defer t.finish()
	// The factory and the prover run inside RunPair, before the root span's
	// end is known, so its id is reserved first.
	root := t.reserve()
	factory := func(s, dst *template.Node) pipeline.Prover {
		t0 := time.Now()
		pc := verify.NewPairContext(s, dst)
		t.add("verify.paircontext_build", root, t0, time.Now())
		return (&tracedProver{t: t, parent: root, pc: pc, d: d}).prove
	}
	t0 := time.Now()
	rules, stats := pipeline.RunPair(ctx, src, dest, pipeline.Options{PairProver: factory, Cache: cache})
	t1 := time.Now()
	tried := stats.PairsTried > 0
	name := "pipeline.run_pair"
	if !tried {
		// C* over the size limit: skipped, not a tried pair.
		name = "pipeline.skipped_pair"
	}
	t.addReserved(root, name, t0, t1)
	var cstar *constraint.Set
	if tried {
		t.timed("constraint.enumerate", 0, func() { cstar = constraint.Enumerate(src, dest) })
		t.timed("constraint.closure", 0, func() { _ = constraint.Closure(cstar) })
		t.timed("fol.translate", 0, func() { folProbe(src, dest) })
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.busy += t1.Sub(t0)
	d.rules = append(d.rules, rules...)
	d.stats.PairsTried += stats.PairsTried
	d.stats.PairsSkipped += stats.PairsSkipped
	d.stats.ProverCalls += stats.ProverCalls
	d.stats.CacheHits += stats.CacheHits
	d.stats.CacheMisses += stats.CacheMisses
	if tried {
		d.cstar += int64(cstar.Len())
	}
}

// folProbe derives the FOL equation candidates of a pair under no
// constraints: the translation the SMT fallback starts from.
func folProbe(src, dest *template.Node) {
	es, vs, err := uexpr.Translate(src)
	if err != nil {
		return
	}
	ed, vd, err := uexpr.Translate(dest)
	if err != nil {
		return
	}
	ns := uexpr.Normalize(es, uexpr.EmptyEnv())
	nd := uexpr.Normalize(uexpr.SubstTuple(ed, vd.ID, vs), uexpr.EmptyEnv())
	_, _ = fol.EquationCandidates(ns, nd, vs)
}

// templateProbes times U-expression translation and normalization of every
// template and the SPES verifier over the rule library, single-threaded.
func (env *discoverEnv) templateProbes(t *tracer) (spesProved, spesTotal int) {
	for _, tpl := range env.templates {
		t.begin()
		var e uexpr.Expr
		var err error
		t.timed("uexpr.translate", 0, func() { e, _, err = uexpr.Translate(tpl) })
		if err == nil {
			t.timed("uexpr.normalize", 0, func() { _ = uexpr.Normalize(e, uexpr.EmptyEnv()) })
		}
		t.finish()
	}
	for _, r := range wetune.BuiltinRules() {
		t.begin()
		var ok bool
		t.timed("spes.verify_rule", 0, func() { ok, _ = spes.VerifyRule(r.Src, r.Dest, r.Constraints) })
		t.finish()
		spesTotal++
		if ok {
			spesProved++
		}
	}
	return spesProved, spesTotal
}

// registryDelta reads counters of the default obs registry now and returns a
// function giving their increase since.
func registryDelta(names ...string) func() map[string]float64 {
	reg := obs.Default()
	before := make(map[string]int64, len(names))
	for _, n := range names {
		before[n] = reg.Counter(n).Value()
	}
	return func() map[string]float64 {
		out := make(map[string]float64, len(names))
		for _, n := range names {
			out[n] = float64(reg.Counter(n).Value() - before[n])
		}
		return out
	}
}
