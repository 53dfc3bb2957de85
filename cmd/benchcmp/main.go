// Command benchcmp compares `go test -bench -benchmem` output against a
// committed allocation baseline and flags regressions.
//
// Usage:
//
//	go test -bench . -benchmem -run '^$' ./internal/... | go run ./cmd/benchcmp -baseline BENCH_allocs.json
//	go test -bench . -benchmem -run '^$' ./internal/... | go run ./cmd/benchcmp -baseline BENCH_allocs.json -update
//
// The baseline maps fully-qualified benchmark names (package.Benchmark, with
// any -GOMAXPROCS suffix stripped) to allocs/op and B/op. A run regresses when
// allocs/op grows more than -threshold percent over the baseline (B/op is
// reported for context but not gated: byte counts wobble with map growth while
// allocation counts are stable). Exit status is 1 on regression so CI can flag
// it; the CI step itself stays non-gating via continue-on-error. ns/op is
// deliberately ignored — shared CI runners make timing meaningless, while
// allocation counts are deterministic.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// baselineEntry is one benchmark's pinned allocation budget.
type baselineEntry struct {
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

type baseline struct {
	Note       string                   `json:"note,omitempty"`
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
}

// benchLine matches one -benchmem result row; metrics a benchmark reports
// itself (b.ReportMetric) sit between ns/op and B/op:
//
//	BenchmarkSearch-8   300   86475 ns/op   25084 B/op   488 allocs/op
//	BenchmarkSolve-8     20   9e+06 ns/op   510.3 ns/node   316236 B/op   3496 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+[\d.e+]+ ns/op\s+(?:[\d.e+-]+ \S+\s+)*?(\d+) B/op\s+(\d+) allocs/op`)

var pkgLine = regexp.MustCompile(`^pkg:\s+(\S+)`)

func main() {
	os.Exit(run())
}

func run() int {
	baselinePath := flag.String("baseline", "BENCH_allocs.json", "committed baseline file")
	threshold := flag.Float64("threshold", 20, "allocs/op regression threshold in percent")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of comparing")
	flag.Parse()

	got := map[string]baselineEntry{}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := pkgLine.FindStringSubmatch(line); m != nil {
			pkg = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		if pkg != "" {
			name = pkg + "." + name
		}
		bpo, _ := strconv.ParseInt(m[2], 10, 64)
		apo, _ := strconv.ParseInt(m[3], 10, 64)
		got[name] = baselineEntry{AllocsPerOp: apo, BytesPerOp: bpo}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp: read stdin:", err)
		return 2
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchcmp: no benchmark lines on stdin (did you pass -benchmem?)")
		return 2
	}

	if *update {
		// The note says why the pins are what they are; a re-pin keeps it.
		next := baseline{
			Note:       "allocs/op baselines for cmd/benchcmp; regenerate with: go test -bench . -benchmem -run '^$' <pkgs> | go run ./cmd/benchcmp -update",
			Benchmarks: got,
		}
		var old baseline
		if data, err := os.ReadFile(*baselinePath); err == nil && json.Unmarshal(data, &old) == nil && old.Note != "" {
			next.Note = old.Note
		}
		out, err := json.MarshalIndent(next, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp:", err)
			return 2
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp:", err)
			return 2
		}
		fmt.Printf("benchcmp: wrote %d baselines to %s\n", len(got), *baselinePath)
		return 0
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		return 2
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: parse %s: %v\n", *baselinePath, err)
		return 2
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)

	regressed := 0
	for _, name := range names {
		cur := got[name]
		want, ok := base.Benchmarks[name]
		if !ok {
			fmt.Printf("NEW   %-60s %6d allocs/op %8d B/op (no baseline; add with -update)\n",
				name, cur.AllocsPerOp, cur.BytesPerOp)
			continue
		}
		deltaPct := 0.0
		if want.AllocsPerOp > 0 {
			deltaPct = 100 * float64(cur.AllocsPerOp-want.AllocsPerOp) / float64(want.AllocsPerOp)
		} else if cur.AllocsPerOp > 0 {
			deltaPct = 100
		}
		status := "ok   "
		if deltaPct > *threshold {
			status = "REGR "
			regressed++
		} else if deltaPct < -*threshold {
			status = "BETTER"
		}
		fmt.Printf("%s %-60s %6d -> %6d allocs/op (%+.1f%%)  %8d -> %8d B/op\n",
			status, name, want.AllocsPerOp, cur.AllocsPerOp, deltaPct, want.BytesPerOp, cur.BytesPerOp)
	}
	for name := range base.Benchmarks {
		if _, ok := got[name]; !ok {
			fmt.Printf("GONE  %-60s (in baseline, not in this run)\n", name)
		}
	}

	if regressed > 0 {
		fmt.Printf("benchcmp: %d benchmark(s) regressed beyond %.0f%% allocs/op\n", regressed, *threshold)
		return 1
	}
	fmt.Println("benchcmp: no allocation regressions")
	return 0
}
