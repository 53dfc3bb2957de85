// Command benchmark is the repository's one seeded benchmark: it generates
// all load for rewriting, serving and discovery from one process, measures
// the end-to-end metrics BENCHMARK.json declares, checks every output against
// an executor that is independent of the rewriter, and — in a separate traced
// run — attributes time to layers by timing calls into each module's public
// functions from outside. See README.md beside this file.
//
//	bash benchmark/run.sh -workload serve_hot -seed 1 -seconds 10 -trace 0
//	bash benchmark/run.sh -seed 1              # one set: all four workloads
//	bash benchmark/run.sh -seed 1 -trace 1     # one traced set
//	bash benchmark/run.sh -aa 5                # five sets, spread against the bounds
//
// run.sh builds into .bench_build/ inside the checkout; go run -C benchmark .
// with the same flags works too.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

//go:embed testdata/golden.json
var goldenJSON []byte

// golden holds what is committed about the seed tree's outputs: the output
// hash of rewrite_cold under GoldenSeed, the hash of the discovered rule set
// (which no seed alters), and the rules the engine oracle is known to refute.
// A hash mismatch is reported, not failed: a performance change promises
// byte-identical outputs, but a deliberate behaviour change is re-baselined by
// a later benchmark issue.
type golden struct {
	Seed               int64    `json:"seed"`
	OutputSHA256       string   `json:"output_sha256"`
	RulesSHA256        string   `json:"rules_sha256"`
	OracleRefutedRules []string `json:"oracle_refuted_rules"`
}

func loadGolden() golden {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("benchmark: testdata/golden.json: " + err.Error()) // embedded at build time
	}
	return g
}

// report is the document a set of runs produces: provenance, then one result
// per run.
type report struct {
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Started    string    `json:"started"`
	Golden     *bool     `json:"golden_match"` // nil when the seed has no goldens
	Results    []*result `json:"results"`
}

func newReport(seed int64, seconds float64) *report {
	return &report{
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Seed: seed, Seconds: seconds,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// commit names the tree being measured. The driver's checkout is not a git
// repository, so "unknown" is an expected answer there.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// compareGolden records whether the hashes a result carries match the
// committed ones. rules_sha256 does not depend on the seed; output_sha256 is
// pinned for the golden seed only.
func (rp *report) compareGolden(r *result) {
	g := loadGolden()
	match := func(ok bool) {
		if rp.Golden == nil {
			rp.Golden = new(bool)
			*rp.Golden = true
		}
		*rp.Golden = *rp.Golden && ok
		r.Info["golden_match"] = ok
	}
	if sha, ok := r.Info["rules_sha256"].(string); ok {
		match(sha == g.RulesSHA256)
	}
	if sha, ok := r.Info["output_sha256"].(string); ok && r.Seed == g.Seed && r.Workload == wlRewriteCold {
		match(sha == g.OutputSHA256)
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty: all, as one set)")
	seed := fs.Int64("seed", 1, "seed all inputs are generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "length of each timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run printing the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1: directory to write trace-<workload>.json span logs to")
	aa := fs.Int("aa", 0, "run N complete sets and print each end-to-end metric's spread against its bound")
	smoke := fs.Bool("smoke", false, "one second per workload on shrunken inputs (a functional check, not a measurement)")
	jsonOut := fs.String("json", "", "also write the full report (provenance, metrics, sample counts) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *aa < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -help")
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, traceOut: *traceOut}
	if *smoke {
		cfg.seconds = 1
	}
	if *aa > 0 {
		return runAA(cfg, *aa)
	}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	rp := newReport(cfg.seed, cfg.seconds)
	fmt.Printf("commit %s, %s, GOMAXPROCS %d, nproc %d, seed %d, %gs per phase\n",
		rp.Commit, rp.GoVersion, rp.GOMAXPROCS, rp.NumCPU, rp.Seed, rp.Seconds)
	ok := true
	var last *result
	for _, name := range names {
		cfg.workload = name
		r, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		rp.compareGolden(r)
		r.print(os.Stdout)
		rp.Results = append(rp.Results, r)
		ok = ok && r.Correct
		last = r
	}
	if rp.Golden != nil {
		fmt.Printf("golden_match: %v\n", *rp.Golden)
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, rp); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	// The driver reads the last line; for a set it describes the last workload.
	fmt.Println(last.finalLine())
	if !ok {
		return 1
	}
	return 0
}

func writeReport(path string, rp *report) error {
	data, err := json.MarshalIndent(rp, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

// benchmarkSpec is the part of BENCHMARK.json the program reads: the bounds
// -aa judges spreads against.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory under run.sh, one level up under go run -C benchmark and go test.
func loadSpec() (*benchmarkSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, errors.New("BENCHMARK.json declares no end_to_end metrics")
	}
	return &spec, nil
}

// runAA runs n complete sets of the end-to-end workloads, each under its own
// seed as the driver does, and prints per workload and metric the median, the
// quartiles, the interquartile range as a share of the median, and the bound.
// It exits non-zero when a spread exceeds its bound (setup_s is exempt, as in
// the driver's check).
func runAA(cfg runConfig, n int) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if n < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -aa needs at least 2 sets to have a spread")
		return 2
	}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for set := 0; set < n; set++ {
		for _, name := range names {
			c := cfg
			c.workload, c.seed, c.trace = name, cfg.seed+int64(set), false
			r, err := runWorkload(c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			if !r.Correct {
				r.print(os.Stdout)
				return 1
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for metric, v := range r.Metrics {
				values[name][metric] = append(values[name][metric], v.Value)
			}
			fmt.Printf("set %d/%d %s seed %d: %s\n", set+1, n, name, c.seed, r.finalLine())
		}
	}
	rp := newReport(cfg.seed, cfg.seconds)
	fmt.Printf("A/A over %d sets: commit %s, %s, GOMAXPROCS %d, nproc %d, seeds %d..%d, %gs per phase\n",
		n, rp.Commit, rp.GoVersion, rp.GOMAXPROCS, rp.NumCPU, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds)
	fmt.Printf("%-15s %-16s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "iqr/med", "range", "bound")
	within := true
	for _, name := range names {
		for _, sm := range spec.EndToEnd {
			vs := values[name][sm.Name]
			q1, q2, q3 := quartiles(vs)
			spread := ratio(q3-q1, q2)
			lo, hi := vs[0], vs[0]
			for _, v := range vs {
				lo, hi = min(lo, v), max(hi, v)
			}
			verdict := ""
			if sm.Name != "setup_s" && spread > sm.Bound {
				verdict = "  EXCEEDS BOUND"
				within = false
			}
			fmt.Printf("%-15s %-16s %12.5g %12.5g %12.5g %7.2f%% %7.2f%% %5.1f%%%s\n",
				name, sm.Name, q1, q2, q3, 100*spread, 100*ratio(hi-lo, q2), 100*sm.Bound, verdict)
		}
	}
	if !within {
		return 1
	}
	return 0
}
