// Package analytics aggregates rewrite provenance, flight-recorder events and
// registry counters across the full evaluation workload into per-rule
// effectiveness reports (`wetune report rules`). Where the flight recorder
// answers "what just happened", this package answers "which rules earn their
// keep": per-rule fire/win/no-op counts, the distribution of plan-size
// reductions each rule delivers, and the dead-rule list — rules that never fired on the
// whole corpus.
package analytics

import (
	"fmt"
	"sort"
	"strings"

	"wetune/internal/obs"
	"wetune/internal/obs/journal"
	"wetune/internal/plan"
	"wetune/internal/rewrite"
	"wetune/internal/workload"
)

// DeltaBuckets are the upper bounds (percent plan-size reduction per fired
// step) of the per-rule size-delta histogram; the last bucket is open-ended. A
// step lands in the first bucket whose bound is >= its reduction, so bucket 0
// collects steps that fired without shrinking the plan (lateral moves the
// search kept because a later step paid off).
var DeltaBuckets = []float64{0, 1, 5, 10, 25, 50}

// DeltaHist is a fixed-bucket histogram of per-step relative size reductions
// (percent), plus the moments needed for a summary line.
type DeltaHist struct {
	Counts []int64 `json:"counts"` // len(DeltaBuckets)+1, last = >50%
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum_pct"`
	Min    float64 `json:"min_pct"`
	Max    float64 `json:"max_pct"`
}

func newDeltaHist() DeltaHist {
	return DeltaHist{Counts: make([]int64, len(DeltaBuckets)+1)}
}

func (h *DeltaHist) observe(pct float64) {
	i := 0
	for i < len(DeltaBuckets) && pct > DeltaBuckets[i] {
		i++
	}
	h.Counts[i]++
	if h.Count == 0 || pct < h.Min {
		h.Min = pct
	}
	if h.Count == 0 || pct > h.Max {
		h.Max = pct
	}
	h.Count++
	h.Sum += pct
}

// Mean returns the average percent size reduction of observed steps.
func (h *DeltaHist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// RuleStats is the aggregated funnel and effectiveness record for one rule
// across the workload. The funnel fields are sums of the per-query why-not
// funnels: how often each gate stopped the rule before it could fire.
type RuleStats struct {
	RuleNo   int    `json:"rule"`
	RuleName string `json:"name"`

	IndexPruned int64 `json:"index_pruned"`
	ShapePruned int64 `json:"shape_pruned"`
	Attempts    int64 `json:"attempts"`
	MatchFailed int64 `json:"match_failed"`
	NoOps       int64 `json:"no_ops"`
	Invalid     int64 `json:"invalid"`
	MemoDups    int64 `json:"memo_dups"`
	NotChosen   int64 `json:"not_chosen"`
	Chosen      int64 `json:"chosen"`

	// Fired counts steps on the chain to the returned plan; Wins counts fired
	// steps that strictly shrank the plan; Queries counts distinct queries the
	// rule fired on.
	Fired   int64 `json:"fired"`
	Wins    int64 `json:"wins"`
	Queries int64 `json:"queries"`

	SizeDelta DeltaHist `json:"size_delta"`
}

// Report is the full-workload rule-effectiveness report.
type Report struct {
	PerApp    int `json:"per_app"`
	Queries   int `json:"queries"`   // plannable queries rewritten
	Rewritten int `json:"rewritten"` // queries whose chosen chain is non-empty

	Rules []RuleStats `json:"rules"`
	// Dead lists rule numbers that never fired on the whole corpus — prime
	// candidates for the §7 reduction pass or for index tuning.
	Dead []int `json:"dead"`

	// Journal is the flight-recorder event mix the run produced (event kind →
	// count), proving the always-on recorder saw the same work the provenance
	// aggregation did.
	Journal map[string]int `json:"journal"`
	// RegistryDeltas are the process-wide obs counters the run added (search
	// effort as the metrics endpoint would report it).
	RegistryDeltas map[string]int64 `json:"registry_deltas"`
}

// Rules runs the fixed rewrite workload (workload.RewriteCorpus) once with
// provenance recording and aggregates per-rule effectiveness. perApp <= 0
// uses the full 100-per-app corpus whose output TestCorpusOutputGolden pins.
func Rules(perApp int) *Report {
	if perApp <= 0 {
		perApp = 100
	}
	schemas, items := workload.RewriteCorpus(perApp)
	rewriters := map[string]*rewrite.Rewriter{}
	for app, schema := range schemas {
		rewriters[app] = rewrite.NewRewriter(workload.WeTuneRules(), schema)
	}

	reg := obs.Default()
	counters := []string{
		"rewrite_rule_attempts", "rewrite_rule_matches",
		"rewrite_index_pruned", "rewrite_shape_pruned", "rewrite_memo_hits",
	}
	before := map[string]int64{}
	for _, name := range counters {
		before[name] = reg.Counter(name).Value()
	}
	jr := journal.Default()
	jseq := jr.Written()

	rep := &Report{PerApp: perApp, Journal: map[string]int{}, RegistryDeltas: map[string]int64{}}
	byRule := map[int]*RuleStats{}
	stat := func(no int, name string) *RuleStats {
		s, ok := byRule[no]
		if !ok {
			s = &RuleStats{RuleNo: no, RuleName: name, SizeDelta: newDeltaHist()}
			byRule[no] = s
		}
		return s
	}

	for _, it := range items {
		p, err := plan.BuildSQL(it.SQL, schemas[it.App])
		if err != nil {
			continue
		}
		rw := rewriters[it.App]
		prov := new(rewrite.Provenance)
		_, applied, _ := rw.Search(p, rewrite.Options{Provenance: prov})
		rep.Queries++
		if len(applied) > 0 {
			rep.Rewritten++
		}
		for _, w := range prov.WhyNot {
			s := stat(w.RuleNo, w.RuleName)
			s.IndexPruned += int64(w.IndexPruned)
			s.ShapePruned += int64(w.ShapePruned)
			s.Attempts += int64(w.Attempts)
			s.MatchFailed += int64(w.MatchFailed)
			s.NoOps += int64(w.NoOps)
			s.Invalid += int64(w.Invalid)
			s.MemoDups += int64(w.MemoDups)
			s.NotChosen += int64(w.NotChosen)
			s.Chosen += int64(w.Chosen)
		}
		seen := map[int]bool{}
		for _, step := range prov.Steps {
			s := stat(step.RuleNo, step.RuleName)
			s.Fired++
			if !seen[step.RuleNo] {
				seen[step.RuleNo] = true
				s.Queries++
			}
			pct := 0.0
			if step.SizeAfter < step.SizeBefore {
				pct = 100 * float64(step.SizeBefore-step.SizeAfter) / float64(step.SizeBefore)
				s.Wins++
			}
			s.SizeDelta.observe(pct)
		}
	}

	for _, s := range byRule {
		rep.Rules = append(rep.Rules, *s)
	}
	sort.Slice(rep.Rules, func(i, j int) bool {
		a, b := &rep.Rules[i], &rep.Rules[j]
		if a.Fired != b.Fired {
			return a.Fired > b.Fired // most effective first
		}
		return a.RuleNo < b.RuleNo
	})
	for _, s := range rep.Rules {
		if s.Fired == 0 {
			rep.Dead = append(rep.Dead, s.RuleNo)
		}
	}
	sort.Ints(rep.Dead)

	for _, name := range counters {
		rep.RegistryDeltas[name] = reg.Counter(name).Value() - before[name]
	}
	for _, ev := range jr.Snapshot() {
		if ev.Seq >= jseq {
			rep.Journal[ev.Kind.String()]++
		}
	}
	return rep
}

// Render formats the report as the `wetune report rules` table: one line per
// rule ordered by fires, the funnel that stopped the rest, and the dead list.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rule effectiveness over %d queries (%d rewritten), %d queries/app\n\n",
		r.Queries, r.Rewritten, r.PerApp)
	fmt.Fprintf(&b, "%4s  %-34s %6s %6s %6s  %8s %7s  %s\n",
		"rule", "name", "fired", "wins", "qries", "attempts", "no-ops", "size-delta% (min/mean/max)")
	for _, s := range r.Rules {
		if s.Fired == 0 {
			continue
		}
		fmt.Fprintf(&b, "%4d  %-34s %6d %6d %6d  %8d %7d  %.1f / %.1f / %.1f\n",
			s.RuleNo, s.RuleName, s.Fired, s.Wins, s.Queries, s.Attempts, s.NoOps,
			s.SizeDelta.Min, s.SizeDelta.Mean(), s.SizeDelta.Max)
	}
	fmt.Fprintf(&b, "\ndead rules (never fired): %d of %d\n", len(r.Dead), len(r.Rules))
	for _, s := range r.Rules {
		if s.Fired != 0 {
			continue
		}
		why := "never attempted"
		switch {
		case s.NoOps > 0 || s.Invalid > 0 || s.MemoDups > 0:
			why = fmt.Sprintf("%d no-op, %d invalid, %d memo-dup candidates", s.NoOps, s.Invalid, s.MemoDups)
		case s.Chosen > 0:
			why = fmt.Sprintf("%d steps, all after the returned plan", s.Chosen)
		case s.NotChosen > 0:
			why = fmt.Sprintf("%d candidates, all outranked", s.NotChosen)
		case s.MatchFailed > 0:
			why = fmt.Sprintf("%d attempts, all match-failed", s.MatchFailed)
		case s.IndexPruned > 0 || s.ShapePruned > 0:
			why = fmt.Sprintf("index-pruned %d, shape-pruned %d times", s.IndexPruned, s.ShapePruned)
		}
		fmt.Fprintf(&b, "%4d  %-34s %s\n", s.RuleNo, s.RuleName, why)
	}
	if len(r.Journal) > 0 {
		kinds := make([]string, 0, len(r.Journal))
		for k := range r.Journal {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		b.WriteString("\nflight-recorder events this run:")
		for _, k := range kinds {
			fmt.Fprintf(&b, " %s=%d", k, r.Journal[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}
